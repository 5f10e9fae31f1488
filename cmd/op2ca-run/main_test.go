package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"op2ca/internal/leakcheck"
	"op2ca/internal/runspec"
	"op2ca/internal/service"
)

// cli runs the command in-process with "TMP/" in args standing for a scratch
// directory, and returns its outcome, exit code and output with the
// directory stripped again.
func cli(t *testing.T, dir string, args ...string) (out runspec.Outcome, code int, stdout, stderr string) {
	t.Helper()
	for i, a := range args {
		args[i] = strings.ReplaceAll(a, "TMP/", dir+string(filepath.Separator))
	}
	var o, e bytes.Buffer
	out, code = run(args, &o, &e)
	strip := strings.NewReplacer(dir+string(filepath.Separator), "")
	return out, code, strip.Replace(o.String()), strip.Replace(e.String())
}

// TestGoldenOutputs pins op2ca-run against the two binaries it replaced:
// testdata holds the stdout and stderr `mgcfd <flags>` and `hydra <flags>`
// printed at the last commit that had them (stderr with the program-name
// prefix rewritten; a missing file means empty), and `op2ca-run -app X
// <same flags>` must reproduce them byte for byte with the same exit code.
// The crash, restore and supervised cases run in order over one ring.
func TestGoldenOutputs(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		exit int
		args string
	}{
		{"mgcfd_stats_verify", 0, "-app mgcfd -mesh-nodes 20000 -ranks 4 -nchains 2 -iters 3 -stats -verify"},
		{"mgcfd_op2_faults_modelcheck", 0, "-app mgcfd -mesh-nodes 8000 -ranks 4 -backend op2 -iters 3 -serial -faults drop=0.02,seed=7 -model-check"},
		{"mgcfd_seq", 0, "-app mgcfd -backend seq -mesh-nodes 8000 -iters 2"},
		{"mgcfd_crash", 3, "-app mgcfd -mesh-nodes 8000 -ranks 4 -iters 6 -faults crash=rank2@120 -checkpoint every=1,path=TMP/ck.bin,keep=3"},
		{"mgcfd_restore", 0, "-app mgcfd -mesh-nodes 8000 -ranks 4 -iters 6 -restore TMP/ck.bin.g000004"},
		{"mgcfd_supervised", 0, "-app mgcfd -mesh-nodes 8000 -ranks 4 -iters 6 -faults crash=rank2@120 -checkpoint every=1,path=TMP/ck.bin,keep=3 -supervise on"},
		{"hydra_cirrus_stats", 0, "-app hydra -mesh-nodes 15000 -ranks 4 -iters 2 -machine cirrus -stats"},
		{"hydra_safe_verify_autotune", 0, "-app hydra -mesh-nodes 8000 -ranks 4 -iters 2 -safe -verify -autotune"},
		{"hydra_explain", 0, "-app hydra -explain"},
		{"hydra_crash", 3, "-app hydra -mesh-nodes 4000 -ranks 3 -iters 4 -machine laptop -faults crash=rank1@30 -checkpoint every=1,path=TMP/hk.bin,keep=3"},
		{"hydra_restore", 0, "-app hydra -mesh-nodes 4000 -ranks 3 -iters 4 -machine laptop -restore TMP/hk.bin.g000001"},
	} {
		_, code, stdout, stderr := cli(t, dir, strings.Fields(tc.args)...)
		if code != tc.exit {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.exit, stderr)
		}
		for ext, got := range map[string]string{".stdout": stdout, ".stderr": stderr} {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+ext))
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s%s differs from the replaced binary's:\n--- got\n%s--- want\n%s", tc.name, ext, got, want)
			}
		}
	}
}

// served runs spec through a real HTTP job service and returns its result.
func served(t *testing.T, spec service.JobSpec) *service.Result {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(service.NewHandler(svc))
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()
	do := func(method, path string, body []byte, want int, into any) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var v service.JobView
	do("POST", "/v1/jobs", body, http.StatusAccepted, &v)
	for deadline := time.Now().Add(time.Minute); !v.State.Terminal(); {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", v.ID, v.State)
		}
		time.Sleep(2 * time.Millisecond)
		do("GET", "/v1/jobs/"+v.ID, nil, http.StatusOK, &v)
	}
	var res service.Result
	do("GET", "/v1/jobs/"+v.ID+"/result", nil, http.StatusOK, &res)
	return &res
}

// TestEntryPointsAgree is the entry-point oracle: one mgcfd and one hydra
// run, clean and with a crash clause under supervision, through the command
// line, service.RunDirect and a served HTTP job. All three drive the same
// runspec, so checksum, residual and max clock must be bitwise equal — and
// the crashed runs must land on the clean runs' answers.
func TestEntryPointsAgree(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, tc := range []struct {
		spec service.JobSpec
		args string
	}{
		{service.JobSpec{Tenant: "ci", App: "mgcfd", MeshNodes: 800, Levels: 2, NChains: 2, Ranks: 3, Iters: 4, Machine: "laptop"},
			"-app mgcfd -mesh-nodes 800 -levels 2 -nchains 2 -ranks 3 -iters 4 -machine laptop"},
		{service.JobSpec{Tenant: "ci", App: "hydra", MeshNodes: 800, Ranks: 3, Iters: 3, Machine: "laptop", Overlap: true},
			"-app hydra -mesh-nodes 800 -ranks 3 -iters 3 -machine laptop -overlap"},
	} {
		var clean runspec.Outcome
		for _, crash := range []string{"", "crash=rank0@20,seed=1"} {
			spec, args := tc.spec, strings.Fields(tc.args)
			if crash != "" {
				spec.Faults = crash
				args = append(args, "-faults", crash, "-supervise", "on", "-checkpoint", "every=1,path=TMP/ck.bin,keep=3")
			}
			label := spec.App + "/" + crash
			out, code, _, stderr := cli(t, t.TempDir(), args...)
			if code != 0 {
				t.Fatalf("%s: op2ca-run exit %d: %s", label, code, stderr)
			}
			direct, err := service.RunDirect(spec, "")
			if err != nil {
				t.Fatalf("%s: RunDirect: %v", label, err)
			}
			for via, res := range map[string]*service.Result{"RunDirect": direct, "HTTP": served(t, spec)} {
				if res.Checksum != out.Checksum || res.Residual != out.Residual || res.MaxClockSeconds != out.MaxClock {
					t.Errorf("%s: %s (%s, %g, %g) != op2ca-run (%s, %g, %g)", label, via,
						res.Checksum, res.Residual, res.MaxClockSeconds, out.Checksum, out.Residual, out.MaxClock)
				}
			}
			if crash == "" {
				clean = out
				continue
			}
			if direct.Restarts < 1 || out.Stats.Supervise.CrashRestarts < 1 {
				t.Errorf("%s: crash clause never fired (RunDirect restarts %d, op2ca-run %+v)", label, direct.Restarts, out.Stats.Supervise)
			}
			if out.Checksum != clean.Checksum || out.Residual != clean.Residual || out.MaxClock != clean.MaxClock {
				t.Errorf("%s: supervised crash run (%s, %g, %g) diverged from the clean run (%s, %g, %g)", label,
					out.Checksum, out.Residual, out.MaxClock, clean.Checksum, clean.Residual, clean.MaxClock)
			}
		}
	}
}

// TestCrashExitThenRestore: an unsupervised crash exits 3 naming the newest
// generation, and -restore of exactly that file — under -serial, which the
// crashed run did not use — ends in the uninterrupted run's output.
func TestCrashExitThenRestore(t *testing.T) {
	defer leakcheck.Check(t)()
	dir := t.TempDir()
	base := "-app mgcfd -mesh-nodes 2000 -ranks 3 -iters 5 -machine laptop"
	_, code, clean, _ := cli(t, dir, strings.Fields(base)...)
	if code != 0 {
		t.Fatalf("clean run: exit %d", code)
	}
	_, code, _, stderr := cli(t, dir, strings.Fields(base+" -faults crash=rank1@60 -checkpoint every=2,path=TMP/ck.bin,keep=3")...)
	hint := regexp.MustCompile(`resume with -restore (\S+)`).FindStringSubmatch(stderr)
	if code != 3 || hint == nil {
		t.Fatalf("crash run: exit %d, stderr %q; want 3 and the -restore hint", code, stderr)
	}
	_, code, resumed, stderr := cli(t, dir, strings.Fields(base+" -serial -restore TMP/"+hint[1])...)
	if code != 0 {
		t.Fatalf("restore: exit %d: %s", code, stderr)
	}
	line := regexp.MustCompile(`restored from ` + regexp.QuoteMeta(hint[1]) + `: [1-4] iterations already complete\n`)
	if got := line.ReplaceAllString(resumed, ""); got == resumed || got != clean {
		t.Errorf("resumed run printed\n%s\nwant the restore line plus the uninterrupted run's\n%s", resumed, clean)
	}
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args string
		exit int
		want string
	}{
		{"-mesh-nodes 500", 1, "want mgcfd or hydra"},
		{"-app hydra -nchains 2", 1, "mgcfd-only"},
		{"-app hydra -levels 2", 1, "mgcfd-only"},
		{"-app mgcfd -safe", 1, "hydra-only"},
		{"-app mgcfd -config testdata/hydra_explain.stdout", 1, "hydra-only"},
		{"-app mgcfd -explain", 1, "hydra-only"},
		{"-app mgcfd -supervise on -restore ck.bin", 1, "incompatible"},
		{"-app mgcfd -backend seq -checkpoint every=1,path=ck.bin", 1, "distributed backend"},
		{"-app hydra -backend seq -supervise on", 1, "distributed backend"},
		{"-app mgcfd -backend mpi", 1, "want seq, op2 or ca"},
		{"-app mgcfd -machine cray", 1, "unknown machine"},
		{"-app mgcfd -partitioner metis", 1, "partitioner"},
		{"-app hydra -config testdata/no-such-file", 1, "no such file"},
		{"-app mgcfd -restore testdata/no-such-file", 1, "no such file"},
		{"-app mgcfd -bogus", 2, "flag provided but not defined"},
		// More ranks than the generated mesh has nodes: a usage error, not
		// the partitioner's panic.
		{"-app mgcfd -mesh-nodes 300 -ranks 400", 2, "ranks 400 outside [1, 315]"},
		{"-app hydra -mesh-nodes 300 -ranks 400", 2, "ranks 400 outside [1, 315]"},
		{"-app hydra -ranks 0", 2, "ranks 0 outside"},
		// Sizes that are not sizes, likewise: nothing runs on a clamped mesh
		// or for a negative number of iterations.
		{"-app mgcfd -mesh-nodes 2000 -iters -1", 2, "iterations -1"},
		{"-app mgcfd -mesh-nodes -5", 2, "mesh nodes -5"},
		{"-app hydra -mesh-nodes 0", 2, "mesh nodes 0"},
		{"-app mgcfd -nchains -1", 2, "nchains -1"},
		{"-app mgcfd -levels -2", 2, "levels -2"},
		{"-app mgcfd -backend seq -ranks 0 -mesh-nodes -1", 2, "mesh nodes -1"},
	} {
		_, code, stdout, stderr := cli(t, t.TempDir(), strings.Fields(tc.args)...)
		if code != tc.exit || !strings.Contains(stderr, tc.want) || stdout != "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit %d, nothing run, and %q", tc.args, code, stdout, stderr, tc.exit, tc.want)
		}
	}
}

// TestDocumentedFlags checks every flag a `go run ./cmd/op2ca-run` line of
// README.md or DESIGN.md passes, continuation lines included, against the
// command's own -h usage, so a documented command cannot drift from the
// binary it documents.
func TestDocumentedFlags(t *testing.T) {
	var usage bytes.Buffer
	run([]string{"-h"}, &usage, &usage)
	for _, flag := range documentedFlags(t, "op2ca-run") {
		if !regexp.MustCompile(`(?m)^\s+-` + regexp.QuoteMeta(flag) + `(\s|$)`).Match(usage.Bytes()) {
			t.Errorf("README.md or DESIGN.md passes -%s, which op2ca-run -h does not list", flag)
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
