package hrwle

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeCLISmoke runs a tiny open-system sweep through the real CLI
// and checks the saturation panels and per-class latency rows appear.
func TestServeCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-serve",
		"-workload", "hashmap", "-requests", "400",
		"-schemes", "RW-LE_OPT,SGL", "-rates", "5e5,5e6", "-q")
	for _, want := range []string{
		"open-system service sweep", "achieved throughput", "drop rate",
		"sojourn p99", "class interactive", "RW-LE_OPT", "SGL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-serve output missing %q:\n%s", want, out)
		}
	}
}

// TestServeCLIList checks the workload listing.
func TestServeCLIList(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-serve", "-list")
	for _, want := range []string{"hashmap", "kyoto", "tpcc", "RW-LE_OPT"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-serve -list missing %q:\n%s", want, out)
		}
	}
}

// TestServeCLIParallelIdentical runs the same sweep at -j 1 and -j 4 and
// requires byte-identical text and JSON files: worker count must never
// leak into results.
func TestServeCLIParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	run := func(j, suffix string) (txt, js []byte) {
		txtPath := filepath.Join(dir, "serve-"+suffix+".txt")
		jsonPath := filepath.Join(dir, "serve-"+suffix+".json")
		runGo(t, "./cmd/hrwle-serve",
			"-workload", "hashmap", "-requests", "400",
			"-schemes", "RW-LE_OPT,SGL", "-rates", "5e5,5e6",
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
		t.Error("-j changed hrwle-serve text output")
	}
	if !bytes.Equal(js1, js4) {
		t.Error("-j changed hrwle-serve JSON output")
	}
}

// TestServeCLIUnknownScheme checks unknown scheme names fail before the
// sweep starts, naming the first of them at any -j.
func TestServeCLIUnknownScheme(t *testing.T) {
	runGoFail(t, `unknown scheme "NOPE_A" (known: RW-LE_OPT,`, "./cmd/hrwle-serve",
		"-workload", "hashmap", "-schemes", "NOPE_A,NOPE_B", "-j", "4", "-q",
		"-o", filepath.Join(t.TempDir(), "out.txt"))
}
