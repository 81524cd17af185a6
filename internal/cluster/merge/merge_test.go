package merge

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/serve"
	"repro/internal/versions"
)

// A split skew job merges back to the unsplit run byte for byte: the
// per-pair sub-specs run one cell each, while the unsplit matrix shares
// each reader stack's control probe across its cells, so this pins the
// two paths' equality at the service boundary.
func TestSkewSplitMergeEqualsUnsplit(t *testing.T) {
	spec := serve.JobSpec{Kind: serve.KindSkew, Parallel: 2}
	subSpecs, err := spec.SubSpecs(0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := versions.DefaultPairs()
	if len(subSpecs) != len(pairs) {
		t.Fatalf("split into %d sub-specs, want one per default pair (%d)", len(subSpecs), len(pairs))
	}
	ctx := context.Background()
	e := &serve.Executor{}
	subs := make([]*serve.JobResult, 0, len(subSpecs))
	for i, s := range subSpecs {
		if len(s.Pairs) != 1 || s.Pairs[0] != pairs[i].String() {
			t.Fatalf("sub-spec %d pairs %v, want [%s]", i, s.Pairs, pairs[i])
		}
		res, err := e.Execute(ctx, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, res)
	}
	merged, err := Skew(spec, subs)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := e.Execute(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Rendered != whole.Rendered {
		t.Errorf("merged rendering differs from the unsplit run:\n--- merged ---\n%s\n--- unsplit ---\n%s", merged.Rendered, whole.Rendered)
	}
	mj, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mj, wj) {
		t.Errorf("merged JobResult differs from the unsplit run:\n merged %s\nunsplit %s", mj, wj)
	}
}

// A split corpus job merges back to the unsplit run byte for byte, over
// several input slices with and without a family subset: the merge sums
// the shards and core.AssembleReport orders and tallies the result, so
// this pins that the two agree beyond the one full-corpus golden.
func TestCorpusSplitMergeEqualsUnsplit(t *testing.T) {
	ctx := context.Background()
	e := &serve.Executor{}
	for _, prefix := range []string{"int", "char", "ts"} {
		for _, families := range [][]string{nil, {"hs", "ss"}} {
			spec := serve.JobSpec{Kind: serve.KindCorpus, InputPrefix: prefix, Families: families, Parallel: 2}
			subSpecs, err := spec.SubSpecs(0)
			if err != nil {
				t.Fatal(err)
			}
			subs := make([]*serve.JobResult, 0, len(subSpecs))
			for _, s := range subSpecs {
				res, err := e.Execute(ctx, s, nil)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, res)
			}
			merged, err := Corpus(spec, subs)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := e.Execute(ctx, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if whole.Report.Distinct == 0 {
				t.Errorf("prefix %q families %v: the run found nothing, so the comparison shows nothing", prefix, families)
			}
			if merged.Rendered != whole.Rendered {
				t.Errorf("prefix %q families %v: merged rendering differs from the unsplit run:\n--- merged ---\n%s\n--- unsplit ---\n%s",
					prefix, families, merged.Rendered, whole.Rendered)
			}
			mj, err := json.Marshal(merged)
			if err != nil {
				t.Fatal(err)
			}
			wj, err := json.Marshal(whole)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mj, wj) {
				t.Errorf("prefix %q families %v: merged JobResult differs from the unsplit run:\n merged %s\nunsplit %s", prefix, families, mj, wj)
			}
		}
	}
}
