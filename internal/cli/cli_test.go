package cli

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hrwle/internal/service"
)

// wantErr fails the test unless err is nil when want is "" and otherwise
// an error containing want.
func wantErr(t *testing.T, what string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: unexpected error %v", what, err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Errorf("%s: err = %v, want one containing %q", what, err, want)
	}
}

func TestSplitTrims(t *testing.T) {
	if got, want := Split("SGL, HLE ,RW-LE_OPT"), []string{"SGL", "HLE", "RW-LE_OPT"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Split = %q, want %q", got, want)
	}
	if got := Join([]float64{5e5, 2e7, 0.9}); got != "500000,2e+07,0.9" {
		t.Errorf("Join = %q", got)
	}
}

func TestListParsers(t *testing.T) {
	ints := func(parse func(*[]int, string) error) func(string) (any, error) {
		return func(s string) (any, error) {
			dst := []int{7}
			err := parse(&dst, s)
			return dst, err
		}
	}
	floats := func(parse func(*[]float64, string) error) func(string) (any, error) {
		return func(s string) (any, error) {
			dst := []float64{7}
			err := parse(&dst, s)
			return dst, err
		}
	}
	cases := []struct {
		name  string
		parse func(string) (any, error)
		in    string
		want  any // the parsed list, when err is ""
		err   string
	}{
		{"threads", ints(Threads), "", []int{7}, ""},
		{"threads", ints(Threads), "2, 8,256", []int{2, 8, 256}, ""},
		{"threads", ints(Threads), "0", nil, `-threads: bad thread count "0" (want 1..256)`},
		{"threads", ints(Threads), "257", nil, `-threads: bad thread count "257"`},
		{"threads", ints(Threads), "2,,4", nil, `-threads: bad thread count ""`},
		{"shards", ints(Shards), "4, 16", []int{4, 16}, ""},
		{"shards", ints(Shards), "4,-1", nil, `-shards: bad shard count "-1"`},
		{"rates", floats(Rates), "1e5, 2.5e6", []float64{1e5, 2.5e6}, ""},
		{"rates", floats(Rates), "1e5,0", nil, `-rates: bad rate "0"`},
		{"rates", floats(Rates), "NaN", nil, `-rates: bad rate "NaN"`},
		{"skews", floats(Skews), "0, 1.2", []float64{0, 1.2}, ""},
		{"skews", floats(Skews), "x", nil, `-skews: bad skew "x"`},
	}
	for _, tc := range cases {
		got, err := tc.parse(tc.in)
		wantErr(t, tc.name+" "+tc.in, err, tc.err)
		if tc.err == "" && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s %q = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestSetKeepsDefaultOnZero(t *testing.T) {
	n := 8
	wantErr(t, "Set 0", Set(&n, "servers", 0), "")
	wantErr(t, "Set 3", Set(&n, "servers", 3), "")
	if n != 3 {
		t.Errorf("n = %d, want 3", n)
	}
	wantErr(t, "Set -1", Set(&n, "servers", -1), "-servers -1: want a positive value")
	if n != 3 {
		t.Errorf("a rejected value changed n to %d", n)
	}
	r := 5e5
	wantErr(t, "Set NaN", Set(&r, "rate", math.NaN()), "-rate NaN")
	wantErr(t, "Set -3", Set(&r, "rate", -3), "-rate -3")
}

func TestSetCycles(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want int64
		err  string
	}{
		{0, 250000, ""},
		{1e6, 1e6, ""},
		{50000, 50000, ""},
		{-5, 0, "-window -5"},
		{1.5, 0, "-window 1.5: want a whole number"},
		{math.Inf(1), 0, "-window +Inf"},
		{math.NaN(), 0, "-window NaN"},
	} {
		w := int64(250000)
		err := SetCycles(&w, "window", tc.v)
		wantErr(t, "SetCycles", err, tc.err)
		if tc.err == "" && w != tc.want {
			t.Errorf("SetCycles(%v) = %d, want %d", tc.v, w, tc.want)
		}
	}
}

func TestRange(t *testing.T) {
	wantErr(t, "in range", Range("w", 100, 0, 100), "")
	wantErr(t, "above", Range("walk-pct", 500, 0, 100), "-walk-pct 500: want 0..100")
	wantErr(t, "unbounded", Range("n", 0, 1, math.MaxInt), "-n 0: want at least 1")
}

func TestServiceApply(t *testing.T) {
	cfg := service.DefaultConfig("hashmap")
	if err := (&Service{}).Apply(&cfg); err != nil || !reflect.DeepEqual(cfg, service.DefaultConfig("hashmap")) {
		t.Errorf("zero knobs changed the config (err %v)", err)
	}
	s := Service{Servers: 4, Requests: 100, QueueCap: 16, Seed: 9, Arrivals: "mmpp"}
	if err := s.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Servers != 4 || cfg.Requests != 100 || cfg.QueueCap != 16 || cfg.Seed != 9 || cfg.Arrivals.Process != service.MMPP {
		t.Errorf("Apply did not override every knob: %+v", cfg)
	}
	wantErr(t, "negative", (&Service{Requests: -5}).Apply(&cfg), "-requests -5")
	wantErr(t, "negative", (&Service{QueueCap: -4}).Apply(&cfg), "-queue-cap -4")
	wantErr(t, "arrivals", (&Service{Arrivals: "burst"}).Apply(&cfg), `-arrivals: unknown arrival process "burst"`)
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	err := WriteAll(path, []string{"a", "b"}, func(s string, w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "ab" {
		t.Errorf("file holds %q, want %q", got, "ab")
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir"), nil); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
	for _, path := range []string{"", "-"} {
		o, err := Create(path)
		if err != nil || o.Writer != os.Stdout || o.Close() != nil {
			t.Errorf("Create(%q) is not stdout (err %v)", path, err)
		}
	}
}
