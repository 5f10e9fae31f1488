package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"op2ca/internal/bench"
	"op2ca/internal/cluster"
	"op2ca/internal/leakcheck"
)

// toy is Table 2 at a scale where one invocation takes well under a second:
// 18 points (2 to 8 ranks), an OP2 and a CA backend each.
const toy = "-nodes8m 600 -nodes24m 1800 -rankscale 0.001 -iters 2 -experiment table2"

// cli runs the command in-process with extra appended to the toy flags —
// "JSON" standing for a fresh -json path whose snapshot is returned — and
// returns the exit code and stderr as well.
func cli(t *testing.T, extra ...string) (code int, snap *bench.Snapshot, stderr string) {
	t.Helper()
	args := append(strings.Fields(toy), extra...)
	jsonPath := ""
	for i, a := range args {
		if a == "JSON" {
			jsonPath = filepath.Join(t.TempDir(), "out.json")
			args[i] = jsonPath
		}
	}
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	if code == 0 && jsonPath != "" {
		var err error
		if snap, err = bench.ReadSnapshot(jsonPath); err != nil {
			t.Fatal(err)
		}
	}
	return code, snap, e.String()
}

// TestEntryPoint drives op2ca-bench the way the CI shell smokes used to:
// whatever is injected — message faults, the autotuner, a crash resumed by
// hand, crashes plus a corrupt generation healed under supervision — the
// invocation's per-run checksums equal the clean baseline's, and the flags
// it shares with op2ca-run fail the same way.
func TestEntryPoint(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	code, base, stderr := cli(t, "-json", "JSON")
	if code != 0 {
		t.Fatalf("baseline exit %d: %s", code, stderr)
	}
	if len(base.Results) != 1 || base.Results[0].Name != "table2" || len(base.Results[0].Rows) != 18 || len(base.Checksums) != 36 {
		t.Fatalf("baseline: %d tables, %d checksums", len(base.Results), len(base.Checksums))
	}
	if *base.Faults != (cluster.FaultStats{}) || base.Supervise != nil || base.AutoTune != nil {
		t.Errorf("baseline carries faults %+v supervise %+v autotune %+v", base.Faults, base.Supervise, base.AutoTune)
	}
	// same checks that snap ran the baseline's runs to the baseline's final
	// state — and, when the invocation only interrupted and resumed them
	// (tables true), to the baseline's table cells: a resumed run measures
	// from the baseline its snapshot carries.
	same := func(name string, snap *bench.Snapshot, tables bool) {
		t.Helper()
		if len(snap.Checksums) != len(base.Checksums) {
			t.Errorf("%s: %d checksums, baseline %d", name, len(snap.Checksums), len(base.Checksums))
		}
		for label, sum := range base.Checksums {
			if snap.Checksums[label] != sum {
				t.Errorf("%s: %s finished with checksum %s, baseline %s", name, label, snap.Checksums[label], sum)
			}
		}
		if tables && !reflect.DeepEqual(snap.Results[0].Rows, base.Results[0].Rows) {
			t.Errorf("%s: table rows differ from the baseline's:\n%v\n%v", name, snap.Results[0].Rows, base.Results[0].Rows)
		}
	}

	code, snap, stderr := cli(t, "-faults", "drop=0.05,seed=1", "-json", "JSON")
	if code != 0 {
		t.Fatalf("faults exit %d: %s", code, stderr)
	}
	if snap.Faults.Retries == 0 || snap.Faults.Giveups != 0 || snap.FaultSpec == "" {
		t.Errorf("faults: totals %+v spec %q, want retries and no give-ups", snap.Faults, snap.FaultSpec)
	}
	same("faults", snap, false)

	code, snap, stderr = cli(t, "-autotune", "-json", "JSON")
	if code != 0 {
		t.Fatalf("autotune exit %d: %s", code, stderr)
	}
	decisions, measured := 0, 0
	for _, run := range snap.AutoTune {
		if run.Calibration.NetMeasured {
			measured++
		}
		for _, d := range run.Decisions {
			decisions++
			// op2 is scored first and ties keep it.
			best := d.Candidates[0]
			for _, c := range d.Candidates {
				if c.Predicted < best.Predicted {
					best = c
				}
			}
			if d.Chosen != best.Policy {
				t.Errorf("autotune: %s chain %s chose %s, predicted minimum is %s", run.Run, d.Chain, d.Chosen, best.Policy)
			}
		}
	}
	if decisions == 0 || measured == 0 {
		t.Errorf("autotune: %d decisions, %d calibrations fitted from measured messages", decisions, measured)
	}
	same("autotune", snap, false)

	// An injected crash ends the unsupervised invocation with exit 3 and a
	// hint naming a generation of the ring at the path given; resuming it by
	// hand ends in the baseline.
	ring := "every=1,path=" + filepath.Join(dir, "ck.bin")
	hint := regexp.MustCompile(`resume with -restore (\S+) `)
	code, _, stderr = cli(t, "-faults", "crash=rank0@60,seed=1", "-checkpoint", ring)
	m := hint.FindStringSubmatch(stderr)
	if code != 3 || m == nil {
		t.Fatalf("crash: exit %d, stderr %q; want 3 and a resume hint", code, stderr)
	}
	gen := m[1]
	if _, err := os.Stat(gen); err != nil || !strings.HasPrefix(gen, filepath.Join(dir, "ck.bin.g")) {
		t.Fatalf("crash: hinted generation %s: %v", gen, err)
	}
	code, snap, stderr = cli(t, "-restore", gen, "-json", "JSON")
	if code != 0 {
		t.Fatalf("restore exit %d: %s", code, stderr)
	}
	same("restore", snap, true)
	// The snapshot belongs to an 8M-class Table 2 run: an invocation that
	// never executes that run must not re-execute everything and report
	// success. (-nodes8m 700 would: RotorForNodes rounds 600 and 700 to the
	// same 648-node mesh, so that invocation continues the snapshot.)
	for _, mismatch := range [][]string{{"-experiment", "table5"}, {"-nodes8m", "1000"}} {
		code, _, stderr = cli(t, append([]string{"-restore", gen}, mismatch...)...)
		if code != 1 || !strings.Contains(stderr, `"mgcfd `) || !strings.Contains(stderr, "nothing was restored") {
			t.Errorf("restore with %v: exit %d, stderr %q; want 1 naming the snapshot's run", mismatch, code, stderr)
		}
	}

	// Supervised self-healing: a crashed invocation seeds a keep=3 ring, its
	// newest generation is then torn, and one supervised invocation with two
	// crash clauses recovers from all of it.
	ring = "every=1,path=" + filepath.Join(dir, "sup.bin") + ",keep=3"
	code, _, stderr = cli(t, "-faults", "crash=rank0@60,seed=1", "-checkpoint", ring)
	if m = hint.FindStringSubmatch(stderr); code != 3 || m == nil {
		t.Fatalf("seeding crash: exit %d, stderr %q", code, stderr)
	}
	newest := m[1]
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()-9); err != nil {
		t.Fatal(err)
	}
	code, snap, stderr = cli(t, "-faults", "crash=rank0@60,crash=rank1@25,seed=1", "-checkpoint", ring,
		"-supervise", "budget=6", "-json", "JSON")
	if code != 0 {
		t.Fatalf("supervised exit %d: %s", code, stderr)
	}
	if sv := snap.Supervise; sv == nil || sv.Restarts < 2 || sv.CrashRestarts < 2 || sv.Quarantined < 1 {
		t.Errorf("supervised: ledger %+v, want >= 2 crash restarts and a quarantined generation", sv)
	}
	if _, err := os.Stat(newest + ".quarantined"); err != nil {
		t.Errorf("supervised: torn generation not quarantined: %v", err)
	}
	same("supervised", snap, true)

	if code, _, stderr = cli(t, "-supervise", "on", "-restore", gen); code != 1 || !strings.Contains(stderr, "incompatible") {
		t.Errorf("-supervise with -restore: exit %d, stderr %q", code, stderr)
	}
}

// TestSnapshotWireFormat pins the -json document's fault and supervise
// ledgers (names, order, zeros present) across their move from
// internal/bench's mirror structs to the cluster types themselves: the two
// objects of a faulted, crashed and self-healed invocation are the bytes
// op2ca-bench wrote before.
func TestSnapshotWireFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	code, _, stderr := cli(t, "-faults", "drop=0.05,crash=rank0@60,seed=1",
		"-checkpoint", "every=1,path="+filepath.Join(dir, "ck.bin"), "-supervise", "on", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"faults":    `{"drops":602,"corrupts":0,"delays":0,"retries":602,"giveups":0,"fallback_ungrouped":0,"fallback_perloop":0}`,
		"supervise": `{"attempts":2,"restarts":1,"crash_restarts":1,"exchange_restarts":0,"watchdog_trips":0,"generations_tried":1,"quarantined":0,"cold_starts":1,"backoff_virtual_seconds":1}`,
	} {
		var got bytes.Buffer
		if err := json.Compact(&got, doc[key]); err != nil || got.String() != want {
			t.Errorf("%s (%v)\n got %s\nwant %s", key, err, got.String(), want)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args string
		code int
		want string
	}{
		{"-experiment table9", 1, `unknown experiment "table9"`},
		{"-faults drop=2", 1, "drop"},
		{"-checkpoint every=0,path=x", 1, "positive integer"},
		{"-compare only-one.json", 2, "exactly two"},
		{"-compare -thresholds default=NaN a.json b.json", 2, "bad value"},
		{"-no-such-flag", 2, "flag provided but not defined"},
		// Scale flags under which a point has more ranks than its mesh has
		// nodes: one line and exit 2, as op2ca-run says it, not a stack.
		{"-experiment table5 -nodes8m 10 -nodes24m 30 -iters 1", 2, "op2ca-bench: ranks 25 outside [1, 18]"},
		{"-experiment table2 -nodes8m 300 -nodes24m 900 -iters 1 -rankscale 0.5", 2, "op2ca-bench: ranks 1024 outside [1, 315]"},
		{"-experiment table2 -nodes8m 300 -nodes24m 900 -iters 1 -rankscale 0.5 -supervise on", 2, "op2ca-bench: ranks 1024 outside [1, 315]"},
	} {
		var o, e bytes.Buffer
		if code := run(strings.Fields(tc.args), &o, &e); code != tc.code || !strings.Contains(e.String(), tc.want) ||
			strings.Contains(e.String(), "goroutine") {
			t.Errorf("%s: exit %d, stderr %q; want %d mentioning %q and no stack", tc.args, code, e.String(), tc.code, tc.want)
		}
	}
}

// TestDocumentedFlags checks every flag a `go run ./cmd/op2ca-bench` line of
// README.md or DESIGN.md passes, continuation lines included, against the
// command's own -h usage, so a documented command cannot drift from the
// binary it documents.
func TestDocumentedFlags(t *testing.T) {
	var usage bytes.Buffer
	run([]string{"-h"}, &usage, &usage)
	for _, flag := range documentedFlags(t, "op2ca-bench") {
		if !regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(flag) + `(\s|$)`).Match(usage.Bytes()) {
			t.Errorf("README.md or DESIGN.md passes -%s, which op2ca-bench -h does not list", flag)
		}
	}
}

// documentedFlags returns the flags passed on every `go run ./cmd/<bin>` line
// of the repository's README.md and DESIGN.md, up to a shell comment.
func documentedFlags(t *testing.T, bin string) []string {
	t.Helper()
	command := regexp.MustCompile(`go run \./cmd/` + regexp.QuoteMeta(bin) + "\\b([^`\n]*)")
	flag := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	var flags []string
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(strings.ReplaceAll(string(b), "\\\n", " "), -1) {
			args, _, _ := strings.Cut(m[1], " #")
			for _, f := range flag.FindAllStringSubmatch(args, -1) {
				flags = append(flags, f[1])
			}
		}
	}
	if len(flags) == 0 {
		t.Fatalf("README.md and DESIGN.md pass %s no flag", bin)
	}
	return flags
}
