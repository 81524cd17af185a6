package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/versions"
)

// lawSeed seeds every spec the split/merge law generates; a failure
// names it beside the spec's index, so the failing spec is rebuilt by
// rerunning the test.
const lawSeed = 26

// lawGen draws one spec of a kind, and the split factor to split it by.
type lawGen func(r *rand.Rand, in lawInputs) (JobSpec, int)

// lawGens holds one generator per kind that splits. The law fails for a
// kind that splits without one, so a new kind is covered from its first
// split rule.
var lawGens = map[string]lawGen{
	KindCorpus: func(r *rand.Rand, in lawInputs) (JobSpec, int) {
		return JobSpec{Kind: KindCorpus, InputPrefix: in.prefix(r, 60), Families: lawSubset(r, core.Families(), 2), Parallel: r.Intn(3)}, 0
	},
	KindFuzz: func(r *rand.Rand, _ lawInputs) (JobSpec, int) {
		// About half the campaigns start at seed index 0.
		return JobSpec{Kind: KindFuzz, Seed: uint64(r.Intn(100)), N: 2 + r.Intn(120), From: r.Intn(2) * r.Intn(40)}, 2 + r.Intn(4)
	},
	KindSkew: func(r *rand.Rand, in lawInputs) (JobSpec, int) {
		var pairs []string
		for _, p := range versions.DefaultPairs() {
			pairs = append(pairs, p.String())
		}
		return JobSpec{Kind: KindSkew, InputPrefix: in.prefix(r, 8), Pairs: lawSubset(r, pairs, 2), Parallel: r.Intn(3)}, 0
	},
	KindPartition: func(r *rand.Rand, _ lawInputs) (JobSpec, int) {
		var names []string
		for _, sc := range partition.Scenarios() {
			names = append(names, sc.Name)
		}
		strategies := []partition.Strategy{"", partition.StrategyObserve, partition.StrategyGuided, partition.StrategyRandom, partition.StrategyCompare}
		return JobSpec{
			Kind:      KindPartition,
			Seed:      uint64(r.Intn(100)),
			Scenarios: lawSubset(r, names, 1),
			Strategy:  string(strategies[r.Intn(len(strategies))]),
			Trials:    r.Intn(4),
		}, 0
	},
}

// lawSubset returns a random subset of at least least of the items, in
// random order.
func lawSubset(r *rand.Rand, items []string, least int) []string {
	out := slices.Clone(items)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:least+r.Intn(len(out)-least+1)]
}

// lawInputs holds the hand-written corpus inputs' names, and how many
// corpus inputs each type word (a name up to its first "_") selects.
type lawInputs struct {
	names  []string
	byWord map[string]int
}

func newLawInputs(t *testing.T) lawInputs {
	inputs, err := core.CorpusInputs("")
	if err != nil {
		t.Fatal(err)
	}
	in := lawInputs{byWord: map[string]int{}}
	for _, i := range inputs {
		word, _, _ := strings.Cut(i.Name, "_")
		in.byWord[word]++
		if !strings.Contains(i.Name, "_gen_") {
			in.names = append(in.names, i.Name)
		}
	}
	return in
}

// prefix draws an input prefix: mostly a random hand-written input's
// type word, when that selects at most most inputs, else its own name.
func (in lawInputs) prefix(r *rand.Rand, most int) string {
	name := in.names[r.Intn(len(in.names))]
	if word, _, _ := strings.Cut(name, "_"); in.byWord[word] <= most && r.Intn(3) > 0 {
		return word
	}
	return name
}

// TestSplitMergeLaw checks, for every kind in the kinds table and in a
// subtest named after it, the law its split and merge rules obey together: merging the results of a
// spec's sub-specs gives the bytes Execute gives for the spec itself.
// The specs are generated from lawSeed. Each sub-spec runs once, and
// the corpus and fuzz merges, which pick each cluster's example by rank,
// also run over seeded permutations of the sub-results: they depend
// only on the multiset. Skew and partition merges concatenate in split
// order, which the coordinator keeps whatever order results arrive in.
// A shard result without its merge metadata, or missing one cluster's
// rank, must fail the merge rather than lose the example silently.
func TestSplitMergeLaw(t *testing.T) {
	specsPerKind := 12
	if testing.Short() {
		specsPerKind = 3
	}
	in := newLawInputs(t)
	e := &Executor{}
	// Specs, not cache keys, index the executions: two specs with one
	// key (families in another order) echo different specs.
	results := map[string]*JobResult{}
	execute := func(t *testing.T, s JobSpec) *JobResult {
		t.Helper()
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		key := string(data)
		if res, ok := results[key]; ok {
			return res
		}
		res, err := e.Execute(context.Background(), s, nil)
		if err != nil {
			t.Fatalf("execute %+v: %v", s, err)
		}
		results[key] = res
		return res
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			k := kinds[name]
			if (k.split == nil) != (k.merge == nil) {
				t.Errorf("kind %s: split and merge must be set together", name)
				return
			}
			if k.split == nil {
				return
			}
			gen := lawGens[name]
			if gen == nil {
				t.Errorf("kind %s splits but has no law generator", name)
				return
			}
			r := rand.New(rand.NewSource(lawSeed))
			ranked := false // some shard carried a rank to drop
			for i := 0; i < specsPerKind; i++ {
				spec, factor := gen(r, in)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Errorf("kind %s, seed %d, spec %d %+v: "+format, append([]any{name, lawSeed, i, spec}, args...)...)
				}
				subSpecs, err := spec.SubSpecs(factor)
				if err != nil || len(subSpecs) == 0 {
					fail("split into %d sub-specs, err %v; the generator must draw splittable specs", len(subSpecs), err)
					continue
				}
				subs := make([]*JobResult, len(subSpecs))
				for j, s := range subSpecs {
					subs[j] = execute(t, s)
				}
				want, err := marshalResult(execute(t, spec))
				if err != nil {
					t.Fatal(err)
				}
				orders := [][]*JobResult{subs}
				if k.sharded {
					orders = append(orders, lawReversed(subs))
					for p := 0; p < 2; p++ {
						perm := slices.Clone(subs)
						r.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
						orders = append(orders, perm)
					}
				}
				for o, order := range orders {
					merged, err := spec.Merge(order)
					if err != nil {
						fail("order %d: merge: %v", o, err)
						continue
					}
					got, err := marshalResult(merged)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						fail("order %d: merged result differs from the unsplit run:\n--- merged ---\n%s\n--- unsplit ---\n%s", o, got, want)
					}
				}
				if !k.sharded {
					continue
				}
				stripped := slices.Clone(subs)
				bare := *stripped[0]
				bare.Merge = nil
				stripped[0] = &bare
				if _, err := spec.Merge(stripped); err == nil {
					fail("a shard without merge metadata merged without error")
				}
				if short, sig := lawDropRank(subs); short != nil {
					ranked = true
					if _, err := spec.Merge(short); err == nil {
						fail("a shard without the rank of %q merged without error", sig)
					}
				}
			}
			if k.sharded && !ranked {
				t.Errorf("kind %s: no generated shard found a failure, so the rank-order merge went unexercised", name)
			}
		})
	}
}

// lawDropRank returns a copy of the shard results in which the first
// shard with a ranked cluster has lost the rank of its first signature
// in sorted order, and that signature; nil when no shard has a ranked
// cluster. The given results are not modified.
func lawDropRank(subs []*JobResult) ([]*JobResult, string) {
	for j, sub := range subs {
		if len(sub.Merge.Ranks) == 0 {
			continue
		}
		sig := ""
		for s := range sub.Merge.Ranks {
			if sig == "" || s < sig {
				sig = s
			}
		}
		meta := *sub.Merge
		meta.Ranks = maps.Clone(sub.Merge.Ranks)
		delete(meta.Ranks, sig)
		dropped := *sub
		dropped.Merge = &meta
		out := slices.Clone(subs)
		out[j] = &dropped
		return out, sig
	}
	return nil, ""
}

// lawReversed returns the results in reverse order.
func lawReversed(subs []*JobResult) []*JobResult {
	out := slices.Clone(subs)
	slices.Reverse(out)
	return out
}
