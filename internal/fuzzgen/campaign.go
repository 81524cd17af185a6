package fuzzgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/versions"
)

// Options configure a campaign.
type Options struct {
	// Context, when non-nil, makes the campaign cancellable between
	// (and inside) configuration batches: a cancelled campaign stops
	// executing, marks the partial result Cancelled, and still
	// clusters and renders what ran — the flush-on-SIGTERM path of
	// crossfuzz and the per-job cancellation path of crossd.
	Context context.Context
	// Seed is the campaign seed; a fixed (Seed, N) pair is reproducible
	// run-to-run, bit for bit.
	Seed uint64
	// N is the number of generated probe groups.
	N int
	// From offsets the generated index range to [From, From+N): a
	// coordinator shards a campaign into contiguous seed ranges whose
	// cases, table labels, and failure ranks are exactly the slices the
	// full campaign would produce (g.Case(i) is pure in i). 0 — the
	// whole campaign — is the default and leaves pre-existing
	// fixed-seed hashes untouched.
	From int
	// Parallel is the harness worker count per batch (values below 2
	// run sequentially; negative is an error).
	Parallel int
	// Budget bounds campaign wall time (0 = none). A budget-stopped
	// campaign is NOT reproducible — the report says so.
	Budget time.Duration
	// Confs is the configuration-pool size (default 6; minimum 1, the
	// default configuration).
	Confs int
	// Versions arms the version axis: each case additionally draws a
	// writer->reader version pair from versions.DefaultPairs() and runs
	// on the matching skew deployment. Off by default — the version
	// axis changes every case, so fixed-seed campaign hashes pinned
	// before it existed stay valid.
	Versions bool
	// CorpusDir, when set, dedups new signatures against the persisted
	// corpus and is where Promote writes reproducers.
	CorpusDir string
	// Tracer and Metrics thread the observability layer through every
	// batch, exactly as in core.Run.
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	// OnFailure, when non-nil, receives every oracle failure as its
	// batch completes (deterministic order within a batch) — crossd's
	// NDJSON stream endpoint feeds from it.
	OnFailure func(core.Failure)
}

// DefaultConfs is the configuration-pool size a zero Options.Confs
// means.
const DefaultConfs = 6

// Cluster is one failure signature's campaign-level tally, and one
// cluster of crossd's fuzz job payload.
type Cluster struct {
	Signature string `json:"signature"`
	Known     int    `json:"known,omitempty"` // discrepancy number in the Figure-6 registry, 0 if new
	Count     int    `json:"count"`
	Example   string `json:"example"`
	// FirstRank orders the cluster's first failure within the campaign's
	// global emission order: the (configuration × version-pair) cell
	// ordinal, then the failure's core rank, 0x1f-separated. Merging
	// shard clusters by minimum FirstRank reproduces the Example (and
	// reproducer seed case) the unsharded campaign picks. A shard sends
	// it beside its clusters, in the merge metadata, not inside them.
	FirstRank string `json:"-"`
}

// Reproducer is one minimized new-signature failure, as persisted to
// the regression corpus.
type Reproducer struct {
	Signature     string `json:"signature"`
	Detail        string `json:"detail"`
	OriginalSize  int    `json:"original_size"`
	MinimizedSize int    `json:"minimized_size"`
	Case          Case   `json:"case"`
}

// Result is a campaign's outcome.
type Result struct {
	Opts        Options
	Generated   int
	Executed    int // probe groups actually run (< Generated when budget-stopped)
	TableCases  int
	Failures    int
	Clusters    []Cluster
	KnownHit    []int
	NewSigs     []string
	Reproducers []*Reproducer
	Stopped     bool
	// Cancelled marks a campaign stopped by its Context (SIGTERM in
	// crossfuzz, job cancellation or timeout in crossd); like Stopped,
	// the partial report is flushed but not reproducible.
	Cancelled bool
	Elapsed   time.Duration
}

// Resolve returns the options with the default configuration-pool size
// filled in (so Confs 0 and DefaultConfs are one campaign), or the
// first reason they cannot run: a negative Parallel, N, From or Confs.
// RunCampaign resolves its options through it, and so does crossd for
// a fuzz job spec at admission.
func (o Options) Resolve() (Options, error) {
	if o.Parallel < 0 {
		return o, fmt.Errorf("fuzzgen: Parallel must be non-negative, got %d", o.Parallel)
	}
	if o.N < 0 {
		return o, fmt.Errorf("fuzzgen: N must be non-negative, got %d", o.N)
	}
	if o.From < 0 {
		return o, fmt.Errorf("fuzzgen: From must be non-negative, got %d", o.From)
	}
	if o.Confs < 0 {
		return o, fmt.Errorf("fuzzgen: Confs must be non-negative, got %d", o.Confs)
	}
	if o.Confs == 0 {
		o.Confs = DefaultConfs
	}
	return o, nil
}

// RunCampaign generates opts.N cases, executes them batched by session
// configuration through core.RunTables, clusters the failures, and
// shrinks the first-seen case of every signature outside the Figure-6
// registry (and outside the persisted corpus) to a minimal reproducer.
func RunCampaign(opts Options) (*Result, error) {
	opts, err := opts.Resolve()
	if err != nil {
		return nil, err
	}
	started := time.Now() //crossvet:wallclock Elapsed is operator-facing; the campaign hash covers Render, which excludes it
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = started.Add(opts.Budget)
	}

	g := NewGenerator(opts.Seed, opts.Confs)
	if opts.Versions {
		g.EnableVersions()
	}
	res := &Result{Opts: opts}

	// Known signatures: the Figure-6 registry plus whatever the corpus
	// already holds — a signature is only "new" once.
	knownSigs := inject.BySignature()
	corpusSigs := map[string]bool{}
	if opts.CorpusDir != "" {
		existing, err := LoadCorpus(opts.CorpusDir)
		if err != nil {
			return nil, err
		}
		for _, r := range existing {
			corpusSigs[r.Signature] = true
		}
	}

	// Generate everything up front (generation is cheap and pure), then
	// batch by configuration-pool index so each deployment is stood up
	// once per configuration.
	type genCase struct {
		index int
		c     Case
		conf  int
	}
	cases := make([]*genCase, 0, opts.N)
	confIndex := map[string]int{}
	for i, conf := range g.ConfPool() {
		confIndex[confKey(conf)] = i
	}
	for i := opts.From; i < opts.From+opts.N; i++ {
		c := g.Case(i)
		cases = append(cases, &genCase{index: i, c: c, conf: confIndex[confKey(c.Conf)]})
	}
	res.Generated = len(cases)

	// Batches are (configuration, version pair) cells so each deployment
	// is stood up once per cell. Without the version axis the pair order
	// is the single empty spec — the pre-version batching, bit for bit.
	pairOrder := []string{""}
	if opts.Versions {
		pairOrder = pairOrder[:0]
		for _, p := range versions.DefaultPairs() {
			pairOrder = append(pairOrder, p.String())
		}
	}
	clusters := map[string]*Cluster{}
	firstBySig := map[string]*genCase{}
batches:
	for confIdx := 0; confIdx < len(g.ConfPool()); confIdx++ {
		for pairIdx, pairSpec := range pairOrder {
			if ctxCancelled(opts.Context) {
				res.Cancelled = true
				break batches
			}
			//crossvet:wallclock Budget is a real-time stop knob; a budget-stopped run is marked Stopped, not pinned
			if !deadline.IsZero() && time.Now().After(deadline) {
				res.Stopped = true
				break batches
			}
			var batch []*core.TableCase
			owner := map[*core.TableCase]*genCase{}
			groups := 0
			for _, gc := range cases {
				if gc.conf != confIdx || gc.c.Pair != pairSpec {
					continue
				}
				tables, err := TableCases(&gc.c, gc.index)
				if err != nil {
					return nil, err
				}
				for _, tc := range tables {
					owner[tc] = gc
				}
				batch = append(batch, tables...)
				groups++
			}
			if len(batch) == 0 {
				continue
			}
			ro := core.RunOptions{
				Context:   opts.Context,
				SparkConf: g.ConfPool()[confIdx],
				Parallel:  opts.Parallel,
				Tracer:    opts.Tracer,
				Metrics:   opts.Metrics,
				OnFailure: opts.OnFailure,
			}
			if pairSpec != "" {
				pair, err := versions.ParsePair(pairSpec)
				if err != nil {
					return nil, err
				}
				ro.Versions = &pair
			}
			run, err := core.RunTables(batch, ro)
			if err != nil {
				// A mid-batch cancellation drops the incomplete batch (its
				// oracle verdicts would be partial) but keeps everything
				// already executed; any other error aborts the campaign.
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					res.Cancelled = true
					break batches
				}
				return nil, err
			}
			res.Executed += groups
			res.TableCases += len(batch)
			res.Failures += len(run.Failures)
			cellOrd := confIdx*len(pairOrder) + pairIdx
			for _, f := range run.Failures {
				cl, ok := clusters[f.Signature]
				if !ok {
					cl = &Cluster{
						Signature: f.Signature,
						// Within a batch emission order equals rank order,
						// and batches run in cell order — so cell ordinal +
						// rank is the failure's global position.
						FirstRank: fmt.Sprintf("%08d\x1f%s", cellOrd, f.Rank),
					}
					if d, known := knownSigs[f.Signature]; known {
						cl.Known = d.Number
					}
					clusters[f.Signature] = cl
				}
				cl.Count++
				if cl.Example == "" {
					cl.Example = f.Detail
				}
				if _, seen := firstBySig[f.Signature]; !seen {
					// Failures attach to table cases via their label;
					// recover the owning generated case for shrinking.
					for tc, gc := range owner {
						if tc.Label == f.Case.Table {
							firstBySig[f.Signature] = gc
							break
						}
					}
				}
			}
		}
	}

	res.assemble(clusters, func(cl *Cluster) *Reproducer {
		gc, ok := firstBySig[cl.Signature]
		if !ok || corpusSigs[cl.Signature] {
			return nil // not recovered, or already in the regression corpus
		}
		orig := cloneCase(gc.c)
		minimized := Shrink(orig, cl.Signature)
		return &Reproducer{
			Signature:     cl.Signature,
			Detail:        cl.Example,
			OriginalSize:  orig.Size(),
			MinimizedSize: minimized.Size(),
			Case:          minimized,
		}
	})
	res.Elapsed = time.Since(started) //crossvet:wallclock Elapsed is operator-facing; the campaign hash covers Render, which excludes it
	return res, nil
}

// assemble sets the campaign's clusters, in signature order, and what
// follows from them: the Figure-6 discrepancies hit, the new
// signatures, and the reproducer of each new signature that reproducer
// returns (nil for none). RunCampaign assembles the clusters it
// tallied; Merge assembles the clusters it summed across shards, so the
// two derive the same report from the same clusters.
func (res *Result) assemble(clusters map[string]*Cluster, reproducer func(*Cluster) *Reproducer) {
	sigs := make([]string, 0, len(clusters))
	for s := range clusters {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	res.Clusters = make([]Cluster, 0, len(sigs))
	knownSet := map[int]bool{}
	for _, s := range sigs {
		cl := clusters[s]
		res.Clusters = append(res.Clusters, *cl)
		if cl.Known > 0 {
			knownSet[cl.Known] = true
			continue
		}
		res.NewSigs = append(res.NewSigs, s)
		if r := reproducer(cl); r != nil {
			res.Reproducers = append(res.Reproducers, r)
		}
	}
	for n := range knownSet {
		res.KnownHit = append(res.KnownHit, n)
	}
	sort.Ints(res.KnownHit)
}

// Merge reassembles the campaign opts describes from its seed-range
// shards: it sums their tallies and cluster counts, keeps each cluster's
// example and reproducer from the shard with the lowest FirstRank (Shrink
// is pure, so that is the unsplit campaign's reproducer), and leaves the
// order and every derived field to assemble. A cluster without a rank is
// an error.
func Merge(opts Options, shards []*Result) (*Result, error) {
	res := &Result{Opts: opts}
	clusters := map[string]*Cluster{}
	first := map[string]*Result{} // signature -> its lowest-ranked shard
	for _, sh := range shards {
		res.Generated += sh.Generated
		res.Executed += sh.Executed
		res.TableCases += sh.TableCases
		res.Failures += sh.Failures
		for _, cl := range sh.Clusters {
			if cl.FirstRank == "" {
				return nil, fmt.Errorf("fuzzgen: shard cluster %q carries no rank", cl.Signature)
			}
			a, ok := clusters[cl.Signature]
			if !ok {
				clusters[cl.Signature], first[cl.Signature] = &cl, sh
				continue
			}
			a.Count += cl.Count
			if cl.FirstRank < a.FirstRank {
				a.Example, a.FirstRank = cl.Example, cl.FirstRank
				first[cl.Signature] = sh
			}
		}
	}
	res.assemble(clusters, func(cl *Cluster) *Reproducer {
		for _, r := range first[cl.Signature].Reproducers {
			if r != nil && r.Signature == cl.Signature {
				return r
			}
		}
		return nil
	})
	return res, nil
}

// Promote writes the campaign's minimized reproducers into the corpus
// directory and returns the files written.
func (res *Result) Promote(dir string) ([]string, error) {
	var files []string
	for _, r := range res.Reproducers {
		f, err := WriteReproducer(dir, r)
		if err != nil {
			return files, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ctxCancelled reports whether a (possibly nil) context is done.
func ctxCancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// confKey fingerprints a configuration for batching.
func confKey(conf map[string]string) string {
	keys := make([]string, 0, len(conf))
	for k := range conf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, conf[k])
	}
	return b.String()
}

// Render produces the campaign report. It contains no timing, so a
// fixed-seed unbudgeted campaign renders byte-identically run-to-run
// and across Parallel settings — Hash over it is the reproducibility
// check.
func (res *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-system fuzz campaign\n")
	fmt.Fprintf(&b, "==========================\n")
	fmt.Fprintf(&b, "seed=%d n=%d confs=%d", res.Opts.Seed, res.Opts.N, res.Opts.Confs)
	if res.Opts.From > 0 {
		// Printed only on shard runs, so whole-campaign hashes pinned
		// before sharding existed stay valid.
		fmt.Fprintf(&b, " from=%d", res.Opts.From)
	}
	fmt.Fprintf(&b, "\n")
	if res.Opts.Versions {
		// Printed only when the version axis is armed, so pre-version
		// campaign hashes are untouched.
		fmt.Fprintf(&b, "versions=on pairs=%d\n", len(versions.DefaultPairs()))
	}
	fmt.Fprintf(&b, "probe groups: %d, table cases: %d, oracle failures: %d\n", res.Executed, res.TableCases, res.Failures)
	if res.Stopped {
		fmt.Fprintf(&b, "NOTE: budget exhausted after %d of %d probe groups; this report is not reproducible\n", res.Executed, res.Generated)
	}
	if res.Cancelled {
		fmt.Fprintf(&b, "NOTE: stopped early (cancelled) after %d of %d probe groups; this report is partial and not reproducible\n", res.Executed, res.Generated)
	}
	fmt.Fprintf(&b, "\nclusters (%d):\n", len(res.Clusters))
	for _, cl := range res.Clusters {
		tag := "new"
		if cl.Known > 0 {
			tag = fmt.Sprintf("known #%d", cl.Known)
		}
		fmt.Fprintf(&b, "  %-28s %6d  (%s)\n", cl.Signature, cl.Count, tag)
		fmt.Fprintf(&b, "      example: %s\n", cl.Example)
	}
	fmt.Fprintf(&b, "\nknown discrepancies hit: %v\n", res.KnownHit)
	fmt.Fprintf(&b, "new signatures: %v\n", res.NewSigs)
	if len(res.Reproducers) > 0 {
		fmt.Fprintf(&b, "\nminimized reproducers:\n")
		for _, r := range res.Reproducers {
			fmt.Fprintf(&b, "  %-28s size %d -> %d: %s\n", r.Signature, r.OriginalSize, r.MinimizedSize, summarizeCase(r.Case))
		}
	}
	return b.String()
}

// Hash is the reproducibility fingerprint: sha256 over the rendered
// report.
func (res *Result) Hash() string {
	return core.HashBytes([]byte(res.Render()))
}

func summarizeCase(c Case) string {
	var cols []string
	for _, col := range c.Columns {
		cols = append(cols, fmt.Sprintf("%s %s = %s", col.Name, col.Type, col.Literal))
	}
	var asn []string
	for _, a := range c.Assignments {
		asn = append(asn, a.Plan+"/"+a.Format)
	}
	s := fmt.Sprintf("[%s] via %s", strings.Join(cols, ", "), strings.Join(asn, ", "))
	if len(c.Conf) > 0 {
		s += " conf " + confKey(c.Conf)
	}
	return s
}
