package serve

import (
	"encoding/json"
	"testing"
)

// FuzzJobSpec holds admission total: any bytes decode, validate, key
// and split without panicking, and a spec Validate accepts keeps its
// content address across a JSON round trip.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"corpus","families":["sh","ss"],"conf":{"spark.sql.ansi.enabled":"false"},"input_prefix":"int_","shard":true}`,
		`{"kind":"sweep","input_prefix":"char"}`,
		`{"kind":"fuzz","seed":5,"n":20,"from":7,"confs":6}`,
		`{"kind":"skew","pairs":["3.2.1/3.1.2","2.3.0/2.3.9->3.2.1/3.1.2"]}`,
		`{"kind":"partition","seed":3,"strategy":"fixed","scenarios":["hdfs-replica"],"schedule":[{"from":"nn","to":"dn1","at_ms":100,"heal_at_ms":400}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		verr := spec.Validate()
		key, kerr := spec.CacheKey()
		if (verr == nil) != (kerr == nil) {
			t.Fatalf("Validate err %v but CacheKey err %v", verr, kerr)
		}
		if verr != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var again JobSpec
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", out, err)
		}
		if k, err := again.CacheKey(); err != nil || k != key {
			t.Fatalf("key moved across a round trip: %s -> %s (%v)\n%s", key, k, err, out)
		}
		subs, err := spec.SubSpecs(3)
		if err != nil {
			t.Fatalf("valid spec does not split: %v", err)
		}
		for _, sub := range subs {
			if _, err := sub.CacheKey(); err != nil {
				t.Fatalf("sub-spec %+v invalid: %v", sub, err)
			}
		}
	})
}
