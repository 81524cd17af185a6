package fuzzgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The discrepancy regression corpus: every genuinely new minimized
// failure a campaign finds is persisted as one JSON reproducer file,
// named after its signature. A regression test replays the whole
// directory on every build, so a signature once found can never be
// silently lost — the BugSwarm lesson of continuously growing a
// reproducible failure dataset instead of freezing it.

// WriteReproducer persists one reproducer to dir (created on demand)
// and returns the file path written.
func WriteReproducer(dir string, r *Reproducer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, sanitizeSignature(r.Signature)+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCorpus reads every reproducer in dir, sorted by file name. A
// missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]*Reproducer, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []*Reproducer
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		// Strict decoding: a typoed field in a hand-edited reproducer
		// must fail loudly, not silently replay something else.
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var r Reproducer
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("fuzzgen: corpus file %s: %w", name, err)
		}
		if r.Signature == "" || len(r.Case.Columns) == 0 || len(r.Case.Assignments) == 0 {
			return nil, fmt.Errorf("fuzzgen: corpus file %s: incomplete reproducer", name)
		}
		out = append(out, &r)
	}
	return out, nil
}

func sanitizeSignature(sig string) string {
	var b strings.Builder
	for _, c := range sig {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}
