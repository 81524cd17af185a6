// Package merge reassembles a split job's sub-results into the parent
// result, byte-identical to what a single node running the whole job
// produces. The contract per kind:
//
//   - corpus: sub-reports (one per plan family) merge at the
//     ReportJSON level; failure ranks carried in MergeMeta decide which
//     shard's example represents each merged cluster, and the rendered
//     text is rebuilt with core.RenderReportJSON.
//   - fuzz: sub-campaigns (contiguous seed ranges) rebuild a
//     fuzzgen.Result — sums, rank-merged clusters, and the minimum-rank
//     shard's reproducers — and the real Render produces the text.
//   - skew: one cell per pair, concatenated in parent pair order into
//     a core.SkewMatrix.
//   - partition: one scenario per sub, concatenated in expanded
//     registry order into a partition.Result.
//
// Every merged payload is built and stamped by the serve code Execute
// uses (the spec's resolved options, serve.FuzzResult,
// serve.SkewResult, JobSpec.Stamp), so a merged result cannot drift
// from the single-node one. The merges stay in this package rather than
// in serve's kind files because crossvet holds this package to the
// determinism contract, while serve is allowed the wall clock.
//
// Everything here is deterministic: map iteration is always sorted
// before it can reach rendered output, and the merged result depends
// only on the multiset of sub-results, not their arrival order.
package merge

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/inject"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/versions"
)

// subRank returns the merge rank a sub-result recorded for a cluster
// signature ("" when absent — absent ranks lose every comparison).
func subRank(sub *serve.JobResult, sig string) string {
	if sub.Merge == nil {
		return ""
	}
	return sub.Merge.Ranks[sig]
}

// better reports whether rank a beats rank b as the representative
// (first-in-emission-order) failure: a non-empty rank beats an empty
// one, otherwise plain string order — ranks are built so string order
// is emission order.
func better(a, b string) bool {
	if a == "" {
		return false
	}
	if b == "" {
		return true
	}
	return a < b
}

// Corpus merges family-shard corpus results into the parent report.
func Corpus(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	merged := core.ReportJSON{
		OracleFailures: map[string]int{},
		Categories:     map[string]int{},
	}
	type acc struct {
		fj   core.FoundJSON
		rank string
	}
	found := map[string]*acc{}
	for _, sub := range subs {
		if sub == nil || sub.Report == nil {
			return nil, fmt.Errorf("merge: corpus sub-result missing report")
		}
		for k, v := range sub.Report.OracleFailures {
			if k == "skew" && v == 0 {
				continue // the conditional key: never emitted at zero
			}
			merged.OracleFailures[k] += v
		}
		for _, fj := range sub.Report.Found {
			rank := subRank(sub, fj.Signature)
			a, ok := found[fj.Signature]
			if !ok {
				cp := fj
				cp.Oracles = map[string]int{}
				for o, n := range fj.Oracles {
					cp.Oracles[o] = n
				}
				found[fj.Signature] = &acc{fj: cp, rank: rank}
				continue
			}
			a.fj.Failures += fj.Failures
			for o, n := range fj.Oracles {
				a.fj.Oracles[o] += n
			}
			if better(rank, a.rank) {
				a.fj.Example = fj.Example
				a.rank = rank
			}
		}
	}
	// Always-present oracle keys, even at zero — exactly what
	// Report.JSON emits.
	for _, o := range []string{"wr", "eh", "difft"} {
		merged.OracleFailures[o] += 0
	}
	sigs := make([]string, 0, len(found))
	for s := range found {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	merged.Found = make([]core.FoundJSON, 0, len(sigs))
	for _, s := range sigs {
		merged.Found = append(merged.Found, found[s].fj)
	}
	// The report's cluster order: known number ascending, known before
	// unknown, then signature — buildReport's comparator.
	sort.SliceStable(merged.Found, func(i, j int) bool {
		a, b := merged.Found[i], merged.Found[j]
		switch {
		case a.Known != 0 && b.Known != 0:
			return a.Known < b.Known
		case a.Known != 0:
			return true
		case b.Known != 0:
			return false
		default:
			return a.Signature < b.Signature
		}
	})
	merged.Distinct = len(merged.Found)
	bySig := inject.BySignature()
	for _, fj := range merged.Found {
		if fj.Known == 0 {
			merged.NewSignatures = append(merged.NewSignatures, fj.Signature)
			continue
		}
		merged.KnownNumbers = append(merged.KnownNumbers, fj.Known)
		if d, ok := bySig[fj.Signature]; ok {
			if d.InConnector {
				merged.InConnector++
			} else {
				merged.Generic++
			}
		}
	}
	sort.Ints(merged.KnownNumbers)
	for c, n := range inject.CategoryCounts(merged.KnownNumbers) {
		merged.Categories[string(c)] = n
	}
	return spec.Stamp(&serve.JobResult{Report: &merged, Rendered: core.RenderReportJSON(merged)})
}

// Fuzz merges seed-range shard campaigns into the parent campaign
// result, rebuilding a fuzzgen.Result under the parent's resolved
// options so the real Render produces the report text.
func Fuzz(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	camp := &fuzzgen.Result{Opts: spec.FuzzOptions()}
	type acc struct {
		cl   fuzzgen.Cluster
		rank string
		sub  *serve.JobResult // the minimum-rank shard, for reproducers
	}
	clusters := map[string]*acc{}
	for _, sub := range subs {
		if sub == nil || sub.Fuzz == nil {
			return nil, fmt.Errorf("merge: fuzz sub-result missing campaign payload")
		}
		camp.Generated += sub.Fuzz.N
		camp.Executed += sub.Fuzz.Executed
		camp.TableCases += sub.Fuzz.TableCases
		camp.Failures += sub.Fuzz.Failures
		for _, cj := range sub.Fuzz.Clusters {
			rank := subRank(sub, cj.Signature)
			a, ok := clusters[cj.Signature]
			if !ok {
				clusters[cj.Signature] = &acc{
					cl:   fuzzgen.Cluster{Signature: cj.Signature, Known: cj.Known, Count: cj.Count, Example: cj.Example, FirstRank: rank},
					rank: rank,
					sub:  sub,
				}
				continue
			}
			a.cl.Count += cj.Count
			if better(rank, a.rank) {
				a.cl.Example = cj.Example
				a.cl.FirstRank = rank
				a.rank = rank
				a.sub = sub
			}
		}
	}
	sigs := make([]string, 0, len(clusters))
	for s := range clusters {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	knownSet := map[int]bool{}
	for _, s := range sigs {
		a := clusters[s]
		camp.Clusters = append(camp.Clusters, a.cl)
		if a.cl.Known > 0 {
			knownSet[a.cl.Known] = true
			continue
		}
		camp.NewSigs = append(camp.NewSigs, s)
		// The minimum-rank shard saw the campaign's first failure of
		// this signature; Shrink is pure, so its reproducer is the one
		// the unsharded campaign emits.
		if a.sub.Merge != nil {
			for i := range a.sub.Merge.Reproducers {
				if a.sub.Merge.Reproducers[i].Signature == s {
					r := a.sub.Merge.Reproducers[i]
					camp.Reproducers = append(camp.Reproducers, &r)
					break
				}
			}
		}
	}
	for n := range knownSet {
		camp.KnownHit = append(camp.KnownHit, n)
	}
	sort.Ints(camp.KnownHit)

	return spec.Stamp(serve.FuzzResult(camp))
}

// Skew merges per-pair skew cells, in parent pair order (the sub-result
// order), into the parent matrix.
func Skew(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	m := &core.SkewMatrix{}
	for _, sub := range subs {
		if sub == nil || sub.Skew == nil {
			return nil, fmt.Errorf("merge: skew sub-result missing matrix payload")
		}
		for _, cell := range sub.Skew.Cells {
			pair, err := versions.ParsePair(cell.Writer + "->" + cell.Reader)
			if err != nil {
				return nil, fmt.Errorf("merge: skew cell pair: %w", err)
			}
			m.Cells = append(m.Cells, core.SkewCell{
				Pair:           pair,
				Known:          cell.Known,
				SkewIDs:        cell.SkewIDs,
				SkewSignatures: cell.SkewSignatures,
				Failures:       cell.Failures,
				SkewFailures:   cell.SkewFailures,
			})
		}
	}
	return spec.Stamp(serve.SkewResult(m))
}

// Partition merges per-scenario campaign outcomes, in parent scenario
// order (the sub-result order), into the parent campaign result.
func Partition(spec serve.JobSpec, subs []*serve.JobResult) (*serve.JobResult, error) {
	o := spec.PartitionOptions()
	pres := &partition.Result{Seed: o.Seed, Strategy: o.Strategy, Trials: o.Trials, HoldMs: o.HoldMs}
	for _, sub := range subs {
		if sub == nil || sub.Partition == nil {
			return nil, fmt.Errorf("merge: partition sub-result missing campaign payload")
		}
		pres.Outcomes = append(pres.Outcomes, sub.Partition.Outcomes...)
	}
	return spec.Stamp(&serve.JobResult{Partition: pres, Rendered: pres.Render()})
}
