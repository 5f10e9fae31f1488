package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func sample() *Snapshot {
	return &Snapshot{
		Nodes8M: 16, Nodes24M: 48, RankScale: 0.25, Iters: 4,
		Checksums: map[string]string{"table2/op2": "abc123", "table2/ca": "def456"},
		Profiles: []ProfileRecord{{
			Run: "table2/ca", Makespan: 10, CritPath: 10,
			ByKind:    map[string]float64{"compute": 6, "send": 4},
			Imbalance: 1.2,
			Comm: []CommRecord{{
				Owner: "synth", Msgs: 40, Bytes: 4096,
				WaitSeconds: 2, LateSeconds: 0.5, NICSeconds: 0.5, TransitSeconds: 1,
			}},
		}},
		Results: []Result{
			{
				Name:   "table2",
				Title:  "Table 2: runtimes",
				Header: []string{"loop", "op2 (s)", "ca (s)", "gain"},
				Rows: [][]string{
					{"total", "10.000", "8.000", "20.0%"},
					{"flux", "4.000", "3.000", "25.0%"},
				},
				Seconds: 1.5,
			},
			{
				Name:   "fig10",
				Title:  "Figure 10: messages",
				Header: []string{"config", "msgs"},
				Rows:   [][]string{{"op2", "1200"}, {"ca", "800"}},
			},
		},
	}
}

func TestParseThresholds(t *testing.T) {
	th, err := ParseThresholds("default=2%,table2=5%,fig10=0.001")
	if err != nil {
		t.Fatal(err)
	}
	if th.Default != 0.02 {
		t.Errorf("Default = %v, want 0.02", th.Default)
	}
	if th.For("table2") != 0.05 || th.For("fig10") != 0.001 {
		t.Errorf("table thresholds wrong: %+v", th)
	}
	if th.For("other") != 0.02 {
		t.Errorf("For(other) = %v, want the default 0.02", th.For("other"))
	}
	if th, err = ParseThresholds(""); err != nil || th.Default != defaultTol {
		t.Errorf("empty spec: %+v, %v", th, err)
	}
	// NaN would switch the gate off (no delta exceeds it), Inf likewise.
	for _, bad := range []string{"nonsense", "a=%", "a=-1", "a=x%", "default=NaN", "a=nan%", "a=Inf", "a=+inf%"} {
		if _, err := ParseThresholds(bad); err == nil {
			t.Errorf("ParseThresholds(%q) accepted", bad)
		}
	}
}

func TestCompareSelfIsOK(t *testing.T) {
	r := CompareSnapshots(sample(), sample(), Thresholds{})
	if !r.OK() {
		t.Fatalf("self-compare found regressions:\n%s", r)
	}
	if r.Compared == 0 {
		t.Fatal("self-compare checked nothing")
	}
	if !strings.Contains(r.String(), "no regressions") {
		t.Errorf("report: %q", r.String())
	}
}

func TestComparePerturbedCellFails(t *testing.T) {
	th, _ := ParseThresholds("default=2%")
	n := sample()
	n.Results[0].Rows[0][2] = "9.600" // +20% over 8.000
	r := CompareSnapshots(sample(), n, th)
	if r.OK() {
		t.Fatal("20% regression passed a 2% threshold")
	}
	found := false
	for _, reg := range r.Regressions {
		if reg.Table == "table2" && strings.Contains(reg.Where, "ca (s)") {
			found = true
			if reg.Delta < 0.19 || reg.Delta > 0.21 {
				t.Errorf("delta = %v, want ~0.20", reg.Delta)
			}
		}
	}
	if !found {
		t.Fatalf("regression not attributed to the perturbed cell:\n%s", r)
	}
	// The same perturbation passes once the table's threshold covers it.
	th, _ = ParseThresholds("default=2%,table2=25%")
	if r := CompareSnapshots(sample(), n, th); !r.OK() {
		t.Fatalf("25%% table threshold still failed:\n%s", r)
	}
}

func TestCompareSecondsIgnored(t *testing.T) {
	n := sample()
	n.Results[0].Seconds = 99.9
	if r := CompareSnapshots(sample(), n, Thresholds{}); !r.OK() {
		t.Fatalf("wall-clock seconds flagged as a regression:\n%s", r)
	}
}

func TestCompareExactFields(t *testing.T) {
	n := sample()
	n.Checksums["table2/ca"] = "beefbeef"
	r := CompareSnapshots(sample(), n, Thresholds{Default: 0.5})
	if r.OK() {
		t.Fatal("checksum change passed")
	}

	n = sample()
	n.Iters = 8
	if r := CompareSnapshots(sample(), n, Thresholds{Default: 0.5}); r.OK() {
		t.Fatal("config change passed")
	}

	n = sample()
	n.Results[0].Rows[1][0] = "renamed"
	if r := CompareSnapshots(sample(), n, Thresholds{Default: 0.5}); r.OK() {
		t.Fatal("non-numeric cell change passed")
	}
}

func TestCompareStructuralChanges(t *testing.T) {
	n := sample()
	n.Results = n.Results[:1] // drop fig10
	r := CompareSnapshots(sample(), n, Thresholds{})
	if r.OK() {
		t.Fatal("missing table passed")
	}

	// A table only in the new snapshot is reported, not failed.
	r = CompareSnapshots(n, sample(), Thresholds{})
	if !r.OK() {
		t.Fatalf("extra new table failed:\n%s", r)
	}
	if len(r.Skipped) == 0 {
		t.Error("extra new table not reported in Skipped")
	}
}

func TestCompareProfiles(t *testing.T) {
	n := sample()
	n.Profiles[0].CritPath = 13 // +30%
	th, _ := ParseThresholds("default=2%")
	r := CompareSnapshots(sample(), n, th)
	if r.OK() {
		t.Fatal("critpath regression passed")
	}
	found := false
	for _, reg := range r.Regressions {
		if reg.Table == "profiles" && strings.Contains(reg.Where, "critpath_seconds") {
			found = true
		}
	}
	if !found {
		t.Fatalf("regression not attributed to critpath:\n%s", r)
	}

	n = sample()
	n.Profiles[0].Comm[0].Msgs = 60 // message counts are exact
	if r := CompareSnapshots(sample(), n, Thresholds{Default: 0.9}); r.OK() {
		t.Fatal("message-count change passed")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	s := sample()
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := CompareSnapshots(s, got, Thresholds{}); !r.OK() {
		t.Fatalf("round-trip changed the snapshot:\n%s", r)
	}
	if _, err := ReadSnapshot(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("ReadSnapshot on a missing file succeeded")
	}
	// The committed baseline predates the removal of the snapshot's overlap
	// object: the unknown key is ignored, everything the compare reads loads.
	old, err := ReadSnapshot("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	if old.Faults == nil || len(old.Results) == 0 || len(old.Checksums) == 0 || len(old.Profiles) == 0 {
		t.Errorf("BENCH_8.json loaded faults %v, %d tables, %d checksums, %d profiles",
			old.Faults, len(old.Results), len(old.Checksums), len(old.Profiles))
	}
}
