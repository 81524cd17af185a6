package serve

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
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

// FuzzValidPeerResult holds the peer-cache boundary total: any bytes a
// peer serves are checked without panicking, and accepted only when
// they decode as a JobResult for the key asked for whose spec hashes to
// that key, whose kind is its spec's, and whose report hash is that of
// its rendered report.
func FuzzValidPeerResult(f *testing.F) {
	spec := smallFuzzSpec()
	res, err := new(Executor).Execute(context.Background(), spec, nil)
	if err != nil {
		f.Fatal(err)
	}
	data, err := marshalResult(res)
	if err != nil {
		f.Fatal(err)
	}
	if sha, ok := validPeerResult(res.Key, data); !ok || sha != res.ReportSHA {
		f.Fatalf("a marshaled result must be accepted for its own key %s, with its report hash", res.Key)
	}
	if _, ok := validPeerResult(res.Key+"0", data); ok {
		f.Fatalf("a marshaled result must be accepted for its own key %s only", res.Key)
	}
	f.Add(res.Key, data)
	f.Add(res.Key, data[:len(data)/2])
	f.Add("k", []byte(`{"key":"k","report":{"distinct":"two"}}`))
	f.Add("", []byte(`null`))
	forged := *res
	forged.ReportSHA = core.HashBytes(nil)
	if data, err = marshalResult(&forged); err != nil {
		f.Fatal(err)
	}
	f.Add(res.Key, data)
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		sha, ok := validPeerResult(key, data)
		var res JobResult
		decoded := json.Unmarshal(data, &res) == nil
		specKey, specErr := res.Spec.CacheKey()
		stamped := res.Kind == res.Spec.Kind && res.ReportSHA == core.HashBytes([]byte(res.Rendered)) &&
			specErr == nil && specKey == key
		if ok != (decoded && res.Key == key && stamped) {
			t.Fatalf("validPeerResult(%q) = %t, but decodes %t with key %q, stamped %t", key, ok, decoded, res.Key, stamped)
		}
		if ok && sha != res.ReportSHA {
			t.Fatalf("validPeerResult(%q) returned report hash %q, the result carries %q", key, sha, res.ReportSHA)
		}
	})
}
