package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/versions"
)

// A case's outcome may depend on its own input, plan, format,
// configuration and versions only: not on which other cases share its
// deployment, their order, Parallel, or the cell a skew matrix runs it
// in. TestCaseIsolation runs seeded subsets and permutations of a run's
// inputs through every harness entry point, at Parallel 1 and 2, and
// requires each case's outcome key to equal the one it had in the full
// run. A table name shared by two cases or a session setting one case
// leaves behind breaks it.
func TestCaseIsolation(t *testing.T) {
	base, err := BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	// Every third base input: each type family keeps valid and invalid
	// members, at a third of the full run's cost.
	var pool []Input
	for i := 0; i < len(base); i += 3 {
		pool = append(pool, base[i])
	}

	t.Run("Run", func(t *testing.T) {
		full := runKeys(t, pool, RunOptions{})
		for seed := int64(1); seed <= int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			inputs := pick(rng, pool)
			got := runKeys(t, inputs, RunOptions{Parallel: 1 + int(seed%2)})
			compareKeys(t, seed, got, full)
		}
	})

	t.Run("RunSkewMatrix", func(t *testing.T) {
		pairs := versions.DefaultPairs()
		full := matrixKeys(t, pool, pairs, RunOptions{})
		for seed := int64(1); seed <= int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			inputs := pick(rng, pool)
			// Two or more pairs, in a seeded order: four of the five
			// default pairs read on one stack, so a later cell copies
			// the reader-stack control an earlier one ran.
			ps := append([]versions.Pair(nil), pairs...)
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			ps = ps[:2+rng.Intn(len(ps)-1)]
			got := matrixKeys(t, inputs, ps, RunOptions{Parallel: 1 + int(seed%2)})
			compareKeys(t, seed, got, full)
		}
	})

	t.Run("RunTables", func(t *testing.T) {
		rng := rand.New(rand.NewSource(0))
		var cases []*TableCase
		for k := 0; k < 48; k++ {
			cols := pick(rng, pool)[:1+rng.Intn(4)]
			tc := &TableCase{Label: fmt.Sprintf("iso_%02d", k), Plan: Plans()[rng.Intn(len(Plans()))],
				Format: Formats()[rng.Intn(len(Formats()))], Ord: int64(k)}
			for i, in := range cols {
				tc.Columns = append(tc.Columns, WideColumn{Name: fmt.Sprintf("c%d", i), Input: in})
			}
			cases = append(cases, tc)
		}
		full := tableKeys(t, cases, RunOptions{})
		for seed := int64(1); seed <= int64(seeds); seed++ {
			rng := rand.New(rand.NewSource(seed))
			batch := pick(rng, cases)
			got := tableKeys(t, batch, RunOptions{Parallel: 1 + int(seed%2)})
			compareKeys(t, seed, got, full)
		}
	})

	t.Run("RunPartitions", func(t *testing.T) {
		for _, format := range Formats() {
			full := partitionKeys(t, format, PartitionCorpus(), RunOptions{})
			for seed := int64(1); seed <= int64(seeds); seed++ {
				rng := rand.New(rand.NewSource(seed))
				got := partitionKeys(t, format, pick(rng, PartitionCorpus()), RunOptions{Parallel: 1 + int(seed%2)})
				compareKeys(t, seed, got, full)
			}
		}
	})
}

// pick returns a seeded non-empty subset of items in a seeded order.
func pick[T any](rng *rand.Rand, items []T) []T {
	out := append([]T(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:1+rng.Intn(len(out))]
}

// outcomeOf is a case's outcome key: its outcome, its write's warnings
// and the outcomes of its two skew probes (no probe outside a skew run).
func outcomeOf(c *CaseResult) string {
	writer := CaseResult{Write: c.Write, Read: c.WriterRead}
	reader := CaseResult{Write: c.RWWrite, Read: c.RWRead}
	return fmt.Sprintf("%s warnings=%q writer=%s reader=%s",
		outcomeKey(c), c.Write.Warnings, outcomeKey(&writer), outcomeKey(&reader))
}

// caseID names a case independently of the run that holds it.
func caseID(c *CaseResult) string {
	return fmt.Sprintf("%s/%s input=%d(%s)", c.Plan.Name(), c.Format, c.Input.ID, c.Input.Name)
}

func runKeys(t *testing.T, inputs []Input, opts RunOptions) map[string]string {
	t.Helper()
	res, err := Run(inputs, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, c := range res.Cases {
		keys[caseID(c)] = outcomeOf(c)
	}
	return keys
}

// matrixKeys keys each case of each matrix cell by what the failures
// streamed for it say: the matrix keeps no case, so the cell's cases
// are read from its failures, which its Failures count delimits in the
// stream. Ranks are left out, as they carry the input's position.
func matrixKeys(t *testing.T, inputs []Input, pairs []versions.Pair, opts RunOptions) map[string]string {
	t.Helper()
	var stream []Failure
	opts.OnFailure = func(f Failure) { stream = append(stream, f) }
	m, err := RunSkewMatrix(inputs, pairs, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, cell := range m.Cells {
		for _, f := range stream[:cell.Failures] {
			id := cell.Pair.String() + " " + caseID(f.Case)
			keys[id] += fmt.Sprintf("[%s %s %s]", f.Oracle, f.Signature, f.Detail)
		}
		stream = stream[cell.Failures:]
	}
	// A case without a failure has the empty key: list every case.
	for _, pair := range pairs {
		for i := range inputs {
			for _, plan := range Plans() {
				for _, format := range Formats() {
					id := pair.String() + " " + caseID(&CaseResult{Input: &inputs[i], Plan: plan, Format: format})
					keys[id] += ""
				}
			}
		}
	}
	return keys
}

func tableKeys(t *testing.T, cases []*TableCase, opts RunOptions) map[string]string {
	t.Helper()
	res, err := RunTables(cases, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, c := range res.Cases {
		keys[fmt.Sprintf("%s table=%s col=%d", caseID(c), c.Table, c.rank.col)] = outcomeOf(c)
	}
	return keys
}

func partitionKeys(t *testing.T, format string, corpus []PartitionInput, opts RunOptions) map[string]string {
	t.Helper()
	res, err := runPartitions(format, corpus, opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for _, c := range res.Cases {
		keys[caseID(c)] = outcomeOf(c)
	}
	return keys
}

// compareKeys requires every case of a subset run to have its full
// run's outcome key, naming the seed that reproduces a mismatch.
func compareKeys(t *testing.T, seed int64, got, full map[string]string) {
	t.Helper()
	bad := 0
	for id, key := range got {
		want, ok := full[id]
		switch {
		case !ok:
			t.Errorf("seed %d: case %s is not in the full run", seed, id)
		case key != want:
			t.Errorf("seed %d: case %s\n  subset run: %s\n  full run:   %s", seed, id, key, want)
		default:
			continue
		}
		if bad++; bad == 5 {
			t.Fatalf("seed %d: more mismatches elided", seed)
		}
	}
	if len(got) == 0 {
		t.Fatalf("seed %d: the subset run has no case", seed)
	}
}
