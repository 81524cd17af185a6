package core

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/inject"
)

// The machine-readable report shape: what `crosstest -json` prints and
// what crossd's /result endpoint embeds, so CLI and server outputs are
// directly diffable. The encoding is deterministic (struct field order
// plus encoding/json's sorted map keys), so equal reports marshal to
// equal bytes and the content-addressed cache can serve them verbatim.

// FoundJSON is one distinct discrepancy in the JSON report.
type FoundJSON struct {
	Signature string `json:"signature"`
	// Known is the Figure-6 registry number, 0 for a new signature.
	Known      int            `json:"known,omitempty"`
	JIRA       string         `json:"jira,omitempty"`
	Title      string         `json:"title,omitempty"`
	Categories []string       `json:"categories,omitempty"`
	Module     string         `json:"module,omitempty"`
	Failures   int            `json:"failures"`
	Oracles    map[string]int `json:"oracles"`
	Example    string         `json:"example"`
}

// ReportJSON is the machine-readable projection of a Report.
type ReportJSON struct {
	OracleFailures map[string]int `json:"oracle_failures"`
	Distinct       int            `json:"distinct"`
	Found          []FoundJSON    `json:"found"`
	KnownNumbers   []int          `json:"known_numbers"`
	NewSignatures  []string       `json:"new_signatures,omitempty"`
	Categories     map[string]int `json:"categories"`
	InConnector    int            `json:"in_connector"`
	Generic        int            `json:"generic"`
}

// JSON projects the report into its machine-readable shape.
func (r *Report) JSON() ReportJSON {
	found := make([]FoundJSON, 0, len(r.Found))
	for _, f := range r.Found {
		fj := FoundJSON{
			Signature: f.Signature,
			Failures:  len(f.Failures),
			Oracles:   make(map[string]int, len(f.Oracles)),
			Example:   f.Example(),
		}
		if f.Known != nil {
			fj.Known = f.Known.Number
			fj.JIRA = f.Known.JIRA
			fj.Title = f.Known.Title
			fj.Module = f.Known.Module
			for _, c := range f.Known.Categories {
				fj.Categories = append(fj.Categories, string(c))
			}
		}
		for o, n := range f.Oracles {
			fj.Oracles[o.String()] = n
		}
		found = append(found, fj)
	}
	oracles := make(map[string]int, len(r.ByOracle))
	for o, n := range r.ByOracle {
		oracles[o.String()] = n
	}
	return AssembleReport(found, oracles)
}

// AssembleReport builds a ReportJSON from its found clusters and the
// per-oracle failure totals: it orders the clusters, and derives the
// distinct count, the known numbers, the new signatures, the §8.2
// category tallies and the connector locality from them. Report.JSON
// and a cluster coordinator's merge of shard reports both build
// through it, so the two cannot disagree. found is sorted in place.
func AssembleReport(found []FoundJSON, oracles map[string]int) ReportJSON {
	slices.SortFunc(found, func(a, b FoundJSON) int { return foundOrder(a.Known, a.Signature, b.Known, b.Signature) })
	out := ReportJSON{
		OracleFailures: map[string]int{"wr": oracles["wr"], "eh": oracles["eh"], "difft": oracles["difft"]},
		Distinct:       len(found),
		Found:          found,
		Categories:     map[string]int{},
	}
	// The three §8.1 oracles are always present; any other (the skew
	// oracle, which only version-skew deployments run) only when it
	// fired, which keeps single-version report bytes — and every
	// pre-version content-addressed cache entry — unchanged.
	for o, n := range oracles {
		if n > 0 {
			out.OracleFailures[o] = n
		}
	}
	bySig := inject.BySignature()
	for _, f := range found {
		if f.Known == 0 {
			out.NewSignatures = append(out.NewSignatures, f.Signature)
			continue
		}
		out.KnownNumbers = append(out.KnownNumbers, f.Known)
		if bySig[f.Signature].InConnector {
			out.InConnector++
		} else {
			out.Generic++
		}
	}
	for c, n := range inject.CategoryCounts(out.KnownNumbers) {
		out.Categories[string(c)] = n
	}
	return out
}

// foundOrder is the report's cluster order: known discrepancies by
// registry number, then new signatures, each tie broken by signature.
func foundOrder(aKnown int, aSig string, bKnown int, bSig string) int {
	if (aKnown == 0) != (bKnown == 0) {
		if aKnown == 0 {
			return 1
		}
		return -1
	}
	return cmp.Or(cmp.Compare(aKnown, bKnown), strings.Compare(aSig, bSig))
}
