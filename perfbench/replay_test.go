package main

import (
	"maps"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/versions"
)

// replayProblems replays the unit and returns what checkReplay found.
func replayProblems(t *testing.T, u deployUnit) []string {
	t.Helper()
	rep, err := replayUnit(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult("test")
	checkReplay(r, u, rep)
	return r.problems
}

// The replay must issue what the harness issues: the same calls on the
// same stacks fail the same way and read back the same values.
func TestReplayMatchesHarness(t *testing.T) {
	inputs, err := core.BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pair := versions.DefaultPairs()[1]
	corpus, err := core.Run(inputs, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	skew, err := core.RunSkew(inputs, pair, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]deployUnit{
		"corpus": {cases: corpusCases(inputs, nil), want: harnessOutcomes(corpus.Cases)},
		"skew":   {pair: &pair, cases: corpusCases(inputs, nil), want: harnessOutcomes(skew.Cases)},
	}
	g := fuzzgen.NewGenerator(3, 6)
	for conf, name := range []string{"fuzz batch 0", "fuzz batch 1"} {
		var tables []*core.TableCase
		for i := 0; i < 200; i++ {
			c := g.Case(i)
			if !maps.Equal(c.Conf, g.ConfPool()[conf]) {
				continue
			}
			tcs, err := fuzzgen.TableCases(&c, i)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, tcs...)
		}
		run, err := core.RunTables(tables, core.RunOptions{SparkConf: g.ConfPool()[conf]})
		if err != nil {
			t.Fatal(err)
		}
		units[name] = deployUnit{conf: g.ConfPool()[conf], cases: tableCases(tables), want: harnessOutcomes(run.Cases)}
	}

	for name, u := range units {
		if len(u.want) != len(u.cases) {
			t.Fatalf("%s: %d harness outcomes for %d cases", name, len(u.want), len(u.cases))
		}
		failed, read := 0, 0
		for _, o := range u.want {
			if o.failed[0] {
				failed++
			}
			if o.values[0] != "" {
				read++
			}
		}
		if failed == 0 || read == 0 {
			t.Errorf("%s: %d failed writes and %d values read; the comparison proves nothing", name, failed, read)
		}
		if p := replayProblems(t, u); len(p) > 0 {
			t.Errorf("%s: %v", name, p)
		}
	}
}

// A replay that no longer does what the harness did is a wrong output:
// here it runs under a configuration the harness run did not have.
func TestReplayDriftIsWrong(t *testing.T) {
	inputs, err := core.BuildBaseCorpus()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(inputs, core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := deployUnit{
		conf:  map[string]string{"spark.sql.legacy.charVarcharAsString": "true"},
		cases: corpusCases(inputs, nil),
		want:  harnessOutcomes(res.Cases),
	}
	p := replayProblems(t, u)
	if len(p) != 1 || !strings.Contains(p[0], "replay differs from the harness") {
		t.Fatalf("drifted replay gave %v, want one problem", p)
	}
}

// A campaign taken apart runs the tables and finds the failures the
// campaign itself does.
func TestCampaignReplayMatchesCampaign(t *testing.T) {
	res, err := fuzzgen.RunCampaign(fuzzgen.Options{Seed: 11, N: 300})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replayCampaign(11, 300, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.tables != res.TableCases || rep.failures != res.Failures || rep.reproduced != len(res.Reproducers) {
		t.Errorf("replay: %d tables, %d failures, %d shrunk; campaign: %d, %d, %d",
			rep.tables, rep.failures, rep.reproduced, res.TableCases, res.Failures, len(res.Reproducers))
	}
	for _, u := range rep.units {
		if p := replayProblems(t, u); len(p) > 0 {
			t.Errorf("batch: %v", p)
		}
	}
}
