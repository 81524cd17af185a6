package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestJobResultBytes pins the exact bytes the cache stores for one spec
// of every kind: the sha256 of marshalResult over an executed result.
// The payload types, their JSON tags and the rendered report all reach
// these bytes, so a refactor of any of them that changes what a client
// or a peer cache reads fails here. The fuzz specs cover a whole
// campaign, a shard (merge metadata included) and a campaign with no
// clusters ("clusters": [] rather than null).
func TestJobResultBytes(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		sha  string
	}{
		{"fuzz", JobSpec{Kind: KindFuzz, Seed: 5, N: 60}, "be067bbae3fa973a8fcc5590f80334d3571127b7febeae31520f2bc97b2d1dc4"},
		{"fuzz-shard", JobSpec{Kind: KindFuzz, Seed: 5, N: 20, From: 7, Shard: true}, "7159473059d93d2953eb97fa18edefcad5c70622a5e1c9d16cacd94e04eeef84"},
		{"fuzz-no-clusters", JobSpec{Kind: KindFuzz, Seed: 3, N: 1}, "c8d525dd05e54eb2137c5f3e654027c9cd32c98871f8537d7ea2a43bc1858195"},
		{"skew", JobSpec{Kind: KindSkew, InputPrefix: "char"}, "30dabfe84e46d4f92458bd64a6bc41c934cb551ad6e0212808df7302e7b9e080"},
		{"skew-pair", JobSpec{Kind: KindSkew, InputPrefix: "int", Pairs: []string{"2.3.0/2.3.9->3.2.1/3.1.2"}}, "8e3e4ae672db0f857c1de118cd9ddfe2bd1f30117937ab00c307318c9206e5d9"},
		{"corpus-shard", JobSpec{Kind: KindCorpus, InputPrefix: "char", Shard: true}, "7ecdf203eb3e707074766c8231d4ef8c3cc4c29d530b5b7b52253c93ce310e7e"},
		{"partition", JobSpec{Kind: KindPartition, Seed: 42}, "330ef57ea9d3c3d8037b30eaa9824b727d5ca613c238528a2bdb54c51608a4e6"},
		{"sweep", JobSpec{Kind: KindSweep, InputPrefix: "ts"}, "1d65a533c0d6d0175a0e7b66a3f4cffcd72aa0dbfa5d8cacb344170b7b6b26c1"},
	}
	var e Executor
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := e.Execute(context.Background(), c.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			data, err := marshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != c.sha {
				t.Errorf("result bytes moved: sha256 %s, want %s", got, c.sha)
			}
		})
	}
}
