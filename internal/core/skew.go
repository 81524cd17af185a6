package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/csi"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/sparksim"
	"repro/internal/sqlval"
	"repro/internal/versions"
)

// The version-skew oracle. A skew run executes every case twice more
// than a plain run: the written table is re-read on the writer stack
// (pre-upgrade control) and a sibling table is produced entirely on the
// reader stack (post-upgrade control). Comparing the controls against
// the main cross-stack outcome isolates discrepancies that exist *only
// because the two stacks run different versions* — the upgrade-triggered
// CSI failures of §5 — from discrepancies both versions share (which the
// three §8.1 oracles already catch).
//
// The reader-stack control depends on the reader stack alone, so a
// matrix runs it once per reader stack, in the first cell reading on
// that stack, and the later cells with that reader copy its outcomes
// (readerProbes). On an unskewed pair the writer-stack control is the
// main read itself.

// versionSkewOracle derives skew failures from the probe outcomes.
//
// Read skew: the same stored bytes decoded by the writer stack versus
// the reader stack. Write skew: the same logical write performed by the
// writer stack versus the reader stack, both read back by the reader.
// Outcomes are compared by outcomeKey — error *signatures*, not raw
// messages — so the "_rw" sibling's table name never manufactures a
// difference. The two probe views are stack values: a view reaches the
// heap only as the Peer of a failure, so a case whose probes agree
// costs no CaseResult.
func versionSkewOracle(cases []*CaseResult) []Failure {
	var out []Failure
	for _, c := range cases {
		key := outcomeKey(c)
		if c.Write.Err == nil {
			writerView := CaseResult{Input: c.Input, Plan: c.Plan, Format: c.Format, Table: c.Table,
				Write: c.Write, Read: c.WriterRead}
			if peerKey := outcomeKey(&writerView); key != peerKey {
				out = append(out, Failure{
					Oracle:    csi.OracleVersionSkew,
					Case:      c,
					Peer:      heapView(writerView),
					Signature: "skew-" + classifySkew(&writerView, c),
					Detail: fmt.Sprintf("read skew: writer stack sees [%s], reader stack sees [%s] for %s",
						peerKey, key, c.Describe()),
				})
			}
		}
		readerView := CaseResult{Input: c.Input, Plan: c.Plan, Format: c.Format,
			Write: c.RWWrite, Read: c.RWRead}
		if peerKey := outcomeKey(&readerView); key != peerKey {
			readerView.Table = c.Table + "_rw"
			out = append(out, Failure{
				Oracle:    csi.OracleVersionSkew,
				Case:      c,
				Peer:      heapView(readerView),
				Signature: "skew-" + classifySkew(c, &readerView),
				Detail: fmt.Sprintf("write skew: writer-stack write yields [%s], reader-stack write yields [%s] for %s",
					key, peerKey, c.Describe()),
			})
		}
	}
	return out
}

// heapView copies a probe view to the heap for a failure to keep.
func heapView(v CaseResult) *CaseResult { return &v }

// classifySkew names the version-gated behavior behind a skew pair. The
// distinctive version-gated errors win; otherwise the difference is
// classified like any differential value divergence.
func classifySkew(a, b *CaseResult) string {
	for _, c := range []*CaseResult{a, b} {
		for _, err := range []error{c.Write.Err, c.Read.Err} {
			if err == nil {
				continue
			}
			var ae *sparksim.AvroUnavailableError
			if errors.As(err, &ae) {
				return "avro-unavailable"
			}
			var ce *sqlval.CastError
			if errors.As(err, &ce) {
				switch ce.Code {
				case "CAST_OVERFLOW":
					// Spark 3.0's ANSI store assignment (SPARK-28730)
					// rejects what 2.x silently coerced.
					return "store-assignment"
				case "CAST_INVALID_INPUT":
					return "ansi-cast"
				case "EXCEED_CHAR_LENGTH", "EXCEED_VARCHAR_LENGTH":
					// CHAR/VARCHAR length enforcement arrived with the
					// SPARK-33480 types.
					return "char-length"
				}
			}
		}
	}
	for _, c := range []*CaseResult{a, b} {
		if c.Write.Err != nil {
			return classifyError(c.Write.Err)
		}
		if c.Read.Err != nil {
			return classifyError(c.Read.Err)
		}
	}
	if a.Read.HasRow != b.Read.HasRow {
		if strings.Contains(a.Input.Type.String(), "STRUCT") {
			return "struct-null"
		}
		//crossvet:registry generic row-presence divergence is the residual skew bucket, deliberately outside the S* registry
		return "row-presence"
	}
	// CHAR/VARCHAR columns written by a pre-3.1 Spark stack are plain
	// STRING (legacy charVarcharAsString): the same content reads back
	// under a different type identity on the two stacks (SPARK-33480).
	av, bv := a.Read.Value, b.Read.Value
	if !av.IsNull() && !bv.IsNull() && av.Type().IsCharacter() && bv.Type().IsCharacter() &&
		av.Kind() != bv.Kind() &&
		strings.TrimRight(av.Str(), " ") == strings.TrimRight(bv.Str(), " ") {
		return "char-type"
	}
	return classifyValueDiff(*av, *bv)
}

// RunSkew executes the corpus on a version-skew deployment: RunOptions
// semantics are Run's, with the pair installed as the writer and reader
// stacks.
func RunSkew(inputs []Input, pair versions.Pair, opts RunOptions) (*RunResult, error) {
	opts.Versions = &pair
	return Run(inputs, opts)
}

// SkewCell is one writer×reader cell of the version matrix. It is also
// the cell of crossd's skew job payload: the embedded pair encodes as
// its "writer" and "reader" stack strings.
type SkewCell struct {
	versions.Pair
	// Known lists the standard-registry discrepancy numbers the cell's
	// run exposed (the Figure-6 pin for the baseline cell).
	Known []int `json:"known"`
	// SkewIDs lists the version-skew registry entries the cell
	// confirmed; SkewSignatures the raw skew-only signatures behind
	// them (including any outside the registry).
	SkewIDs        []string `json:"skew_ids,omitempty"`
	SkewSignatures []string `json:"skew_signatures,omitempty"`
	// Failures tallies oracle violations: the three §8.1 oracles plus
	// the skew oracle.
	Failures     int `json:"failures"`
	SkewFailures int `json:"skew_failures"`
}

// SkewMatrix is the cross-version discrepancy matrix: one cell per
// writer×reader pair, in the caller's pair order.
type SkewMatrix struct {
	Cells []SkewCell
}

// RunSkewMatrix executes the corpus over every writer×reader pair and
// assembles the matrix. Cells run sequentially in the given order (each
// cell parallelizes internally per opts.Parallel), so the matrix is
// bit-identical across parallelism settings.
//
// A reader stack shared by several pairs runs its control probe once:
// the first cell reading on it fills a probe table, the later ones copy
// from it, and the table is dropped after the last of them. Every cell
// and every failure equals that of RunSkew on the cell's pair alone.
func RunSkewMatrix(inputs []Input, pairs []versions.Pair, opts RunOptions) (*SkewMatrix, error) {
	if len(pairs) == 0 {
		pairs = versions.DefaultPairs()
	}
	last := make(map[versions.Stack]int, len(pairs))
	for i, pair := range pairs {
		last[pair.Reader] = i
	}
	tables := map[versions.Stack]*readerProbes{}
	m := &SkewMatrix{}
	for i, pair := range pairs {
		probes := tables[pair.Reader]
		if probes == nil && last[pair.Reader] > i {
			probes = &readerProbes{from: pair.String()}
			tables[pair.Reader] = probes
		}
		opts.Versions = &pair
		res, err := run(inputs, opts, probes)
		if err != nil {
			return nil, err
		}
		m.Cells = append(m.Cells, buildSkewCell(pair, res))
		if last[pair.Reader] == i {
			delete(tables, pair.Reader)
		}
	}
	return m, nil
}

// readerProbes is one reader stack's probe table in a skew matrix. The
// reader-stack control runs on the reader stack only, under the run's
// conf, so the first cell reading on the stack records it here and the
// later cells copy it. A slot is the case's at its position in Run's
// slab, so parallel workers never share one; outcomes, errors and rows
// are shared read-only, like every ReadOutcome's row.
type readerProbes struct {
	from  string    // the pair of the cell that runs the probes
	slots []rwProbe // nil until that cell sizes it to its case count
}

// rwProbe is one case's reader-stack control outcome.
type rwProbe struct {
	write WriteOutcome
	read  ReadOutcome
}

// probeSkew runs the skew probes of c, the run's slot-th case, once its
// main write and read are in: the same table re-read on the writer
// stack, and a sibling table produced entirely on the reader stack. On
// an unskewed pair both stacks carry one profile and conf and read the
// same bytes, so the writer-stack read is the read.
func (l *caseLoop) probeSkew(slot int, c *CaseResult) {
	d, p := l.d, l.probes
	if c.Write.Err == nil {
		c.WriterRead = c.Read
		if d.Pair.Skewed() {
			c.WriterRead = d.WriterReadSpan(c.Span, c.Plan.Read, c.Table)
		}
	}
	if l.copyProbes {
		c.RWWrite, c.RWRead = p.slots[slot].write, p.slots[slot].read
		c.Span.Set(obs.AttrProbeFrom, p.from)
		return
	}
	rw := c.Table + "_rw"
	c.RWWrite = d.ReaderWriteSpan(c.Span, c.Plan.Write, rw, c.Format, *c.Input)
	if c.RWWrite.Err == nil {
		c.RWRead = d.ReadSpan(c.Span, c.Plan.Read, rw)
	}
	d.release(rw)
	if p != nil {
		p.slots[slot] = rwProbe{c.RWWrite, c.RWRead}
	}
}

// buildSkewCell condenses one pair's run into its matrix cell.
func buildSkewCell(pair versions.Pair, res *RunResult) SkewCell {
	cell := SkewCell{
		Pair:     pair,
		Known:    res.Report.DistinctKnown(),
		Failures: len(res.Failures),
	}
	sigs := map[string]bool{}
	for _, f := range res.Failures {
		if f.Oracle == csi.OracleVersionSkew {
			cell.SkewFailures++
			sigs[f.Signature] = true
		}
	}
	// A version-gated behavior can also surface through the standard
	// oracles (e.g. an unavailable data source fails the write/read
	// oracle outright); count those cluster signatures too.
	for _, sig := range res.Report.UnknownSignatures() {
		sigs[sig] = true
	}
	bySig := inject.SkewBySignature()
	ids := map[string]bool{}
	for sig := range sigs {
		cell.SkewSignatures = append(cell.SkewSignatures, sig)
		if d, ok := bySig[sig]; ok {
			ids[d.ID] = true
		}
	}
	sort.Strings(cell.SkewSignatures)
	for id := range ids {
		cell.SkewIDs = append(cell.SkewIDs, id)
	}
	sort.Strings(cell.SkewIDs)
	return cell
}

// Render produces the human-readable matrix: one row per pair with the
// standard-registry discrepancy count, the skew-only findings, and the
// JIRA/migration anchors of the confirmed skew registry entries.
func (m *SkewMatrix) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-version discrepancy matrix (writer -> reader)\n")
	fmt.Fprintf(&b, "===================================================\n\n")
	skewReg := inject.SkewByID()
	for _, cell := range m.Cells {
		label := cell.Pair.String()
		if !cell.Pair.Skewed() {
			label += " (baseline)"
		}
		fmt.Fprintf(&b, "%s\n", label)
		fmt.Fprintf(&b, "    known discrepancies: %d %v\n", len(cell.Known), cell.Known)
		fmt.Fprintf(&b, "    skew failures: %d, skew-only signatures: %v\n", cell.SkewFailures, cell.SkewSignatures)
		for _, id := range cell.SkewIDs {
			d := skewReg[id]
			fmt.Fprintf(&b, "    %-3s %-12s %s\n", d.ID, d.Anchor, d.Title)
		}
		b.WriteString("\n")
	}
	return b.String()
}
