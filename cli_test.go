package hrwle

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goBin, append([]string{"run", pkg}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go run %s %v succeeded, want exit 1:\n%s", pkg, args, out)
	}
	// go run reports the program's own exit code on its last line.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 || lines[1] != "exit status 1" ||
		!strings.Contains(lines[0], want) || strings.Contains(string(out), "panic") {
		t.Errorf("go run %s %v: want one error line containing %q, then exit status 1; got:\n%s",
			pkg, args, want, out)
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

// TestTraceCLIUnknownScheme checks hrwle-trace validates -scheme the same way.
func TestTraceCLIUnknownScheme(t *testing.T) {
	runGoFail(t, `unknown scheme "NOPE"`, "./cmd/hrwle-trace", "-scheme", "SGL,NOPE", "-q")
}
