package hrwle

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfCLISmoke runs a tiny profile point through the real CLI and
// checks the cross-scheme breakdown table and per-scheme panels appear.
func TestProfCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-prof",
		"-workload", "hashmap", "-requests", "300", "-servers", "4",
		"-schemes", "RW-LE_OPT,SGL", "-q")
	for _, want := range []string{
		"virtual-time profile", "cycle breakdown", "useful", "fallback",
		"idle", "cycle attribution", "virtual-time series",
		"throughput (CS/s)", "sojourn p99", "RW-LE_OPT", "SGL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-prof output missing %q:\n%s", want, out)
		}
	}
}

// TestProfCLIList checks the workload/knee listing.
func TestProfCLIList(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-prof", "-list")
	for _, want := range []string{"hashmap", "kyoto", "tpcc", "RW-LE_OPT", "RW-LE_basic"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-prof -list missing %q:\n%s", want, out)
		}
	}
}

// TestProfCLIParallelIdentical runs the same profile at -j 1 and -j 4 and
// requires byte-identical text and JSON: worker count must never leak into
// the report.
func TestProfCLIParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	run := func(j, suffix string) (txt, js []byte) {
		txtPath := filepath.Join(dir, "prof-"+suffix+".txt")
		jsonPath := filepath.Join(dir, "prof-"+suffix+".json")
		runGo(t, "./cmd/hrwle-prof",
			"-workload", "hashmap", "-requests", "300", "-servers", "4",
			"-schemes", "RW-LE_OPT,HLE,SGL",
			"-j", j, "-q", "-o", txtPath, "-json", jsonPath)
		var err error
		if txt, err = os.ReadFile(txtPath); err != nil {
			t.Fatal(err)
		}
		if js, err = os.ReadFile(jsonPath); err != nil {
			t.Fatal(err)
		}
		return txt, js
	}
	txt1, js1 := run("1", "j1")
	txt4, js4 := run("4", "j4")
	if !bytes.Equal(txt1, txt4) {
		t.Error("-j changed hrwle-prof text output")
	}
	if !bytes.Equal(js1, js4) {
		t.Error("-j changed hrwle-prof JSON output")
	}
}

// TestProfCLIUnknownScheme checks an unknown scheme name fails before the
// first profile point with the list of known names.
func TestProfCLIUnknownScheme(t *testing.T) {
	runGoFail(t, `unknown scheme "NOPE" (known: RW-LE_OPT,`, "./cmd/hrwle-prof",
		"-workload", "hashmap", "-schemes", "NOPE", "-q",
		"-o", filepath.Join(t.TempDir(), "out.txt"))
}
