package hrwle

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateFlags = flag.Bool("update", false, "rewrite testdata/cli_flags.txt from the commands' -h output")

// runGo executes `go run pkg args...` from the repo root and returns the
// combined output. Skips the test when no go tool is on PATH (e.g. a
// stripped CI runner executing a prebuilt test binary).
func runGo(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goBin, append([]string{"run", pkg}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// runGoFail executes `go run pkg args...` like runGo but requires the
// command to exit 1 with a one-line error containing want, and no panic.
func runGoFail(t *testing.T, want, pkg string, args ...string) {
	t.Helper()
	runGoExit(t, 1, want, pkg, args...)
}

// runGoExit is runGoFail for a command that must exit with code.
func runGoExit(t *testing.T, code int, want, pkg string, args ...string) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goBin, append([]string{"run", pkg}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go run %s %v succeeded, want exit %d:\n%s", pkg, args, code, out)
	}
	// go run reports the program's own exit code on its last line.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 || lines[1] != fmt.Sprintf("exit status %d", code) ||
		!strings.Contains(lines[0], want) ||
		strings.Contains(string(out), "panic") || strings.Contains(string(out), "goroutine") {
		t.Errorf("go run %s %v: want one error line containing %q, then exit status %d; got:\n%s",
			pkg, args, want, code, out)
	}
}

// TestBenchCLISmoke regenerates one tiny figure through the real CLI and
// checks the report carries the expected sections and schemes.
func TestBenchCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-bench", "-fig", "fig3", "-scale", "0.01", "-threads", "2", "-q")
	for _, want := range []string{"fig3", "RW-LE_OPT", "abort breakdown", "commit breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-bench output missing %q:\n%s", want, out)
		}
	}
}

// TestBenchCLIList checks the figure listing knows every registered figure.
func TestBenchCLIList(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-bench", "-list")
	for _, want := range []string{"fig3", "fig10", "retries", "split"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-bench -list missing %q:\n%s", want, out)
		}
	}
}

// TestBenchCLIParallelIdentical sweeps the same tiny figure at -j 1 and
// -j 8 through the real CLI and requires identical tables: the parallel
// harness must never change virtual-time results.
func TestBenchCLIParallelIdentical(t *testing.T) {
	// Compare the -o files, not process output: stderr carries wall-clock
	// chatter that legitimately differs between runs.
	dir := t.TempDir()
	serialPath := filepath.Join(dir, "serial.txt")
	parallelPath := filepath.Join(dir, "parallel.txt")
	args := []string{"-fig", "fig3", "-scale", "0.01", "-threads", "2,4", "-q"}
	runGo(t, "./cmd/hrwle-bench", append([]string{"-j", "1", "-o", serialPath}, args...)...)
	runGo(t, "./cmd/hrwle-bench", append([]string{"-j", "8", "-o", parallelPath}, args...)...)
	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := os.ReadFile(parallelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Errorf("-j changed figure output\n--- -j1 ---\n%s\n--- -j8 ---\n%s", serial, parallel)
	}
}

// TestTraceCLIMultiScheme traces two schemes in one invocation and checks
// both reports arrive in the order given.
func TestTraceCLIMultiScheme(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-trace", "-scheme", "RW-LE_OPT,SGL", "-q", "-ops", "5")
	i := strings.Index(out, "scheme=RW-LE_OPT")
	j := strings.Index(out, "scheme=SGL")
	if i < 0 || j < 0 || j < i {
		t.Errorf("multi-scheme trace reports missing or out of order:\n%s", out)
	}
}

// TestCheckCLISmoke runs a tiny exploration through cmd/hrwle-check.
func TestCheckCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-check", "-scheme", "RW-LE_OPT", "-program", "record", "-budget", "200")
	if !strings.Contains(out, "RW-LE_OPT/record") || !strings.Contains(out, "executions") {
		t.Errorf("hrwle-check output unexpected:\n%s", out)
	}
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("unmutated RW-LE_OPT reported a violation:\n%s", out)
	}
}

// TestQuickstartExample keeps the README's quickstart example running.
func TestQuickstartExample(t *testing.T) {
	out := runGo(t, "./examples/quickstart")
	if len(strings.TrimSpace(out)) == 0 {
		t.Error("quickstart example produced no output")
	}
	if strings.Contains(strings.ToLower(out), "panic") {
		t.Errorf("quickstart example panicked:\n%s", out)
	}
}

// TestBenchCLIRejectsBadThreads checks -threads takes only positive
// integers: a zero count, a non-number and a mixed list are errors rather
// than a divide-by-zero panic, an empty figure or a silently trimmed list.
func TestBenchCLIRejectsBadThreads(t *testing.T) {
	for _, tc := range []struct{ arg, want string }{
		{"0", `bad thread count "0"`},
		{"abc", `bad thread count "abc"`},
		{"2,x,-4", `bad thread count "x"`},
	} {
		runGoFail(t, tc.want, "./cmd/hrwle-bench", "-fig", "fig3", "-scale", "0.01", "-q",
			"-o", filepath.Join(t.TempDir(), "out.txt"), "-threads", tc.arg)
	}
}

// TestShardCLIUnknownScheme checks an unknown scheme name fails up front
// with the list of known names; adaptive stays valid for the shard sweep.
func TestShardCLIUnknownScheme(t *testing.T) {
	runGoFail(t, `unknown scheme "NOPE" (known: RW-LE_OPT,`, "./cmd/hrwle-shard",
		"-schemes", "adaptive,NOPE", "-q", "-o", filepath.Join(t.TempDir(), "out.txt"))
}

// TestShardCLIBadSkew checks hrwle-shard rejects a negative, NaN or
// infinite -skews entry with one error line and exit status 1, before any
// point runs.
func TestShardCLIBadSkew(t *testing.T) {
	for _, skew := range []string{"-1", "NaN", "Inf"} {
		t.Run(skew, func(t *testing.T) {
			runGoFail(t, "key skew", "./cmd/hrwle-shard",
				"-skews", "0,"+skew, "-q", "-o", filepath.Join(t.TempDir(), "out.txt"))
		})
	}
}

// TestTraceCLIUnknownScheme checks hrwle-trace validates -scheme the same way.
func TestTraceCLIUnknownScheme(t *testing.T) {
	runGoFail(t, `unknown scheme "NOPE"`, "./cmd/hrwle-trace", "-scheme", "SGL,NOPE", "-q")
}

// TestCLIBadInputIsAnError runs every command with an out-of-range flag
// value: a CPU count above machine.MaxCPUs, a zero or negative count, a
// negative service knob or an out-of-range percentage. Each must exit with
// one error line naming the flag — 1, or 2 for hrwle-check's usage errors —
// and never panic, hang on the default sweep, or silently run with the
// flag's default instead.
func TestCLIBadInputIsAnError(t *testing.T) {
	out := func() string { return filepath.Join(t.TempDir(), "out.txt") }
	serve := []string{"-workload", "hashmap", "-schemes", "SGL", "-rates", "1e5", "-requests", "50", "-q"}
	prof := []string{"-workload", "hashmap", "-schemes", "SGL", "-requests", "50", "-q"}
	shard := []string{"-shards", "4", "-skews", "0", "-schemes", "SGL", "-requests", "50", "-universe", "1024", "-q"}
	bench := []string{"-fig", "fig3", "-scale", "0.01", "-q"}
	check := []string{"-budget", "10"}
	for _, tc := range []struct {
		pkg  string
		base []string
		flag []string
		want string
		code int
	}{
		{"hrwle-serve", serve, []string{"-servers", "300"}, "300 servers", 1},
		{"hrwle-serve", serve, []string{"-servers", "-1"}, "-servers -1", 1},
		{"hrwle-serve", serve, []string{"-requests", "-5"}, "-requests -5", 1},
		{"hrwle-serve", serve, []string{"-queue-cap", "-4"}, "-queue-cap -4", 1},
		{"hrwle-prof", prof, []string{"-servers", "300"}, "300 servers", 1},
		{"hrwle-prof", prof, []string{"-rate", "-3"}, "-rate -3", 1},
		{"hrwle-prof", prof, []string{"-window", "-5"}, "-window -5", 1},
		// The example in hrwle-prof's usage text: RW-LE_basic's capacity
		// livelock on tpcc is an error naming the workload and scheme.
		{"hrwle-prof", []string{"-q"}, []string{"-workload", "tpcc", "-schemes", "all"}, "tpcc/RW-LE_basic", 1},
		{"hrwle-serve", []string{"-q"}, []string{"-workload", "tpcc", "-schemes", "RW-LE_basic"}, "tpcc/RW-LE_basic", 1},
		{"hrwle-shard", shard, []string{"-servers", "300"}, "300 servers", 1},
		{"hrwle-trace", []string{"-q"}, []string{"-threads", "300"}, "-threads 300", 1},
		{"hrwle-trace", []string{"-q"}, []string{"-threads", "0"}, "-threads 0", 1},
		{"hrwle-trace", []string{"-q"}, []string{"-threads", "-2"}, "-threads -2", 1},
		{"hrwle-trace", nil, []string{"-n", "0"}, "-n 0", 1},
		{"hrwle-trace", nil, []string{"-n", "-1"}, "-n -1", 1},
		{"hrwle-trace", []string{"-q"}, []string{"-ops", "-1"}, "-ops -1", 1},
		{"hrwle-bench", bench, []string{"-threads", "300"}, `-threads: bad thread count "300"`, 1},
		{"hrwle-check", check, []string{"-threads", "300"}, "-threads 300", 2},
		{"hrwle-check", check, []string{"-threads", "-1"}, "-threads -1", 2},
		{"hrwle-check", check, []string{"-ops", "-1"}, "-ops -1", 2},
		{"hrwle-check", check, []string{"-walk-pct", "500"}, "-walk-pct 500", 2},
	} {
		t.Run(tc.pkg+strings.Join(tc.flag, "_"), func(t *testing.T) {
			args := append(append([]string{}, tc.base...), tc.flag...)
			if tc.pkg != "hrwle-trace" && tc.pkg != "hrwle-check" {
				args = append(args, "-o", out())
			}
			runGoExit(t, tc.code, tc.want, "./cmd/"+tc.pkg, args...)
		})
	}
}

// TestCLISharedSyntax checks the commands read a shared flag the same way:
// comma lists are trimmed entry by entry, and -window takes the float
// notation (1e6) that hrwle-prof's usage text shows.
func TestCLISharedSyntax(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.txt")
	tl := filepath.Join(dir, "timeline.json")
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"serve-lists", []string{"./cmd/hrwle-serve", "-workload", "hashmap", "-schemes", "SGL, HLE", "-rates", "1e5, 2e5", "-requests", "50", "-q", "-o", out}},
		{"serve-window", []string{"./cmd/hrwle-serve", "-workload", "hashmap", "-schemes", "SGL", "-rates", "1e5", "-requests", "50", "-q", "-o", out, "-timeline", tl, "-window", "1e6"}},
		{"prof-lists", []string{"./cmd/hrwle-prof", "-workload", "hashmap", "-schemes", "SGL, HLE", "-requests", "50", "-window", "1e6", "-q", "-o", out}},
		{"shard-lists", []string{"./cmd/hrwle-shard", "-schemes", "adaptive, SGL", "-shards", "4, 8", "-skews", "0, 1.2", "-servers", "8", "-requests", "50", "-universe", "1024", "-window", "2e4", "-q", "-o", out}},
		{"trace-lists", []string{"./cmd/hrwle-trace", "-scheme", "SGL, HLE", "-ops", "5", "-q"}},
		{"trace-window", []string{"./cmd/hrwle-trace", "-ops", "5", "-q", "-timeline", tl, "-window", "1e6"}},
	} {
		t.Run(tc.name, func(t *testing.T) { runGo(t, tc.args[0], tc.args[1:]...) })
	}
}

// TestCLIFlagSets pins every command's flag names and the defaults its -h
// text shows against testdata/cli_flags.txt, recorded from the commands
// as they were before they moved onto internal/cli (less hrwle-bench's
// retired -bench and -bench-baseline). A flag dropped or renamed, or a
// default changed, shows up as a diff. -j defaults to GOMAXPROCS, so the
// commands run with GOMAXPROCS=2.
func TestCLIFlagSets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	// The last "(default X)" of a flag's help text; of "(default 64, max
	// 256)" only the value.
	defaultRE := regexp.MustCompile(`\(default ("[^"]*"|.*?)(?:, |\))`)
	var got []string
	for _, name := range []string{"hrwle-bench", "hrwle-check", "hrwle-prof", "hrwle-serve", "hrwle-shard", "hrwle-trace", "hrwle-vet"} {
		cmd := exec.Command(goBin, "run", "./cmd/"+name, "-h")
		cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
		help, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", name, err, help)
		}
		for _, line := range strings.Split(string(help), "\n") {
			if strings.HasPrefix(line, "  -") {
				got = append(got, name+" "+strings.Fields(line)[0])
			} else if !strings.HasPrefix(line, "    \t") {
				continue
			}
			if m := defaultRE.FindAllStringSubmatch(line, -1); m != nil {
				flag, _, _ := strings.Cut(got[len(got)-1], " (default")
				got[len(got)-1] = flag + " (default " + m[len(m)-1][1] + ")"
			}
		}
	}
	const golden = "testdata/cli_flags.txt"
	if *updateFlags {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update): %v", golden, err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("flag sets differ from %s:\n--- got ---\n%s--- want ---\n%s", golden, g, want)
	}
}
