package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/csi"
)

// Oracle failure logs, in the layout of the original artifact: one
// JSON file per (plan family, oracle) — ss_difft_failed.json,
// sh_wr_failed.json, and so on — each entry naming the input, the
// write/read interfaces, and the backend format that failed.

// LogEntry is one failure in an oracle log.
type LogEntry struct {
	Index     int    `json:"index"`
	Input     string `json:"input"`
	Literal   string `json:"literal"`
	Type      string `json:"type"`
	Plan      string `json:"plan"`
	Format    string `json:"format"`
	Oracle    string `json:"oracle"`
	Signature string `json:"signature"`
	Detail    string `json:"detail"`
	Peer      string `json:"peer,omitempty"`
}

// OracleLogs groups the run's failures by "<family>_<oracle>", sorted
// by input id then plan then format.
func (r *RunResult) OracleLogs() map[string][]LogEntry {
	out := map[string][]LogEntry{}
	for _, f := range r.Failures {
		key := fmt.Sprintf("%s_%s", f.Case.Plan.Family, f.Oracle)
		entry := LogEntry{
			Index:     f.Case.Input.ID,
			Input:     f.Case.Input.Name,
			Literal:   f.Case.Input.Literal,
			Type:      f.Case.Input.Type.String(),
			Plan:      f.Case.Plan.Name(),
			Format:    f.Case.Format,
			Oracle:    f.Oracle.String(),
			Signature: f.Signature,
			Detail:    f.Detail,
		}
		if f.Peer != nil {
			entry.Peer = f.Peer.Describe()
		}
		out[key] = append(out[key], entry)
	}
	for key := range out {
		entries := out[key]
		sort.Slice(entries, func(i, j int) bool {
			a, b := entries[i], entries[j]
			if a.Index != b.Index {
				return a.Index < b.Index
			}
			if a.Plan != b.Plan {
				return a.Plan < b.Plan
			}
			return a.Format < b.Format
		})
	}
	return out
}

// ErrLogDirIsFile reports a WriteOracleLogs destination that exists as
// a regular file instead of a directory.
var ErrLogDirIsFile = fmt.Errorf("core: oracle log dir exists and is not a directory")

// WriteOracleLogs writes each group to dir as
// "<family>_<oracle>_failed.json", creating dir if needed. Every log
// key a full run can produce gets a file — groups with zero failures
// get an empty JSON array — so consumers can distinguish "oracle ran
// clean" from "oracle never ran". It returns the file names written,
// sorted.
func (r *RunResult) WriteOracleLogs(dir string) ([]string, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("%w: %s", ErrLogDirIsFile, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logs := r.OracleLogs()
	keys := oracleNames()
	for key := range logs {
		if !containsString(keys, key) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	names := make([]string, 0, len(keys))
	for _, key := range keys {
		entries := logs[key]
		if entries == nil {
			entries = []LogEntry{}
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			return nil, err
		}
		name := key + "_failed.json"
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// oracleNames lists the log keys a full run can produce.
func oracleNames() []string {
	var out []string
	for _, fam := range []string{"ss", "sh", "hs"} {
		for _, o := range []csi.Oracle{csi.OracleWriteRead, csi.OracleErrorHandling, csi.OracleDifferential} {
			out = append(out, fmt.Sprintf("%s_%s", fam, o))
		}
	}
	return out
}
