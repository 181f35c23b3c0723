// Package cli is the flag and output layer of the hrwle-* commands: the
// flags several commands share, the parsers that check flag values, the
// output destinations and the error exit. Every command reads a flag the
// same way: a comma list is split and trimmed and every entry is checked,
// 0 keeps a default, a negative count is an error naming the flag, and an
// output path of "-" is stdout.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"hrwle/internal/machine"
	"hrwle/internal/service"
)

// Exit prints err on stderr and exits with code.
func Exit(code int, err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(code)
}

// Fatal prints err on stderr and exits 1.
func Fatal(err error) { Exit(1, err) }

// JobsVar registers -j, how many independent simulations run at once.
func JobsVar(p *int, usage string) {
	flag.IntVar(p, "j", runtime.GOMAXPROCS(0), usage)
}

// Sweep holds the flags of the commands that run a sweep of points.
type Sweep struct {
	Out   string // -o: the text report; "" or "-" is stdout
	Jobs  int    // -j
	Quiet bool   // -q
}

// SweepFlags registers -o, -j and -q.
func SweepFlags() *Sweep {
	s := &Sweep{}
	flag.StringVar(&s.Out, "o", "", "write the text report to this file (default stdout)")
	JobsVar(&s.Jobs, "measurement points to run concurrently")
	flag.BoolVar(&s.Quiet, "q", false, "suppress per-point progress")
	return s
}

// Progress returns where per-point progress goes: stderr, or nil under -q.
func (s *Sweep) Progress() io.Writer {
	if s.Quiet {
		return nil
	}
	return os.Stderr
}

// Service holds the open-system knobs of hrwle-serve, hrwle-prof and
// hrwle-shard. A zero value keeps the workload's default.
type Service struct {
	Servers, Requests, QueueCap int
	Seed                        uint64
	Arrivals                    string // "" leaves the arrival process alone
}

// ServiceFlags registers -servers, -requests, -queue-cap and -seed, and
// -arrivals when arrivals is set. def supplies the defaults the usage
// text quotes.
func ServiceFlags(def service.Config, arrivals bool) *Service {
	s := &Service{}
	flag.IntVar(&s.Servers, "servers", 0, fmt.Sprintf("serving CPUs (default %d, max %d)", def.Servers, machine.MaxCPUs))
	flag.IntVar(&s.Requests, "requests", 0, fmt.Sprintf("arrivals per point (default %d)", def.Requests))
	flag.IntVar(&s.QueueCap, "queue-cap", 0, fmt.Sprintf("dispatch queue bound (default %d)", def.QueueCap))
	flag.Uint64Var(&s.Seed, "seed", 0, fmt.Sprintf("schedule and machine seed (default %d)", def.Seed))
	if arrivals {
		flag.StringVar(&s.Arrivals, "arrivals", "poisson", "arrival process (poisson|mmpp)")
	}
	return s
}

// Apply overrides cfg with every knob that was given. A negative count is
// an error; the CPU bound is checked where cfg is validated.
func (s *Service) Apply(cfg *service.Config) error {
	err := errors.Join(
		Set(&cfg.Servers, "servers", s.Servers),
		Set(&cfg.Requests, "requests", s.Requests),
		Set(&cfg.QueueCap, "queue-cap", s.QueueCap),
	)
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.Arrivals != "" {
		p, perr := service.ParseProcess(s.Arrivals)
		if perr != nil {
			return errors.Join(err, fmt.Errorf("-arrivals: %w", perr))
		}
		cfg.Arrivals.Process = p
	}
	return err
}

// Set stores the value v of flag name in *dst, unless v is 0, which keeps
// the default already in *dst. A negative value (or NaN) is an error.
func Set[T int | int64 | float64](dst *T, name string, v T) error {
	if !(v >= 0) {
		return fmt.Errorf("-%s %v: want a positive value, or 0 for the default", name, v)
	}
	if v > 0 {
		*dst = v
	}
	return nil
}

// SetCycles is Set for a width in virtual cycles (-window), which may be
// written in float notation such as 1e6 but must be a whole number.
func SetCycles(dst *int64, name string, v float64) error {
	if v != math.Trunc(v) || math.Abs(v) >= 1<<62 {
		return fmt.Errorf("-%s %v: want a whole number of cycles", name, v)
	}
	return Set(dst, name, int64(v))
}

// Range checks that the value v of flag name lies in lo..hi.
func Range(name string, v, lo, hi int) error {
	if v >= lo && v <= hi {
		return nil
	}
	if hi == math.MaxInt {
		return fmt.Errorf("-%s %d: want at least %d", name, v, lo)
	}
	return fmt.Errorf("-%s %d: want %d..%d", name, v, lo, hi)
}

// Split splits a comma-separated flag value into its trimmed entries.
func Split(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Join formats a list the way Split reads it back.
func Join[T any](vs []T) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// list parses each entry of the comma list s of flag name with parse into
// *dst, unless s is empty, which keeps the default already in *dst. The
// first entry parse rejects is an error naming what it should have been.
func list[T any](dst *[]T, name, s, what, want string, parse func(string) (T, bool)) error {
	if s == "" {
		return nil
	}
	var out []T
	for _, part := range Split(s) {
		v, ok := parse(part)
		if !ok {
			return fmt.Errorf("-%s: bad %s %q (want %s)", name, what, part, want)
		}
		out = append(out, v)
	}
	*dst = out
	return nil
}

// Threads parses a list of simulated CPU counts (-threads) into *dst.
func Threads(dst *[]int, s string) error {
	return list(dst, "threads", s, "thread count", fmt.Sprintf("1..%d", machine.MaxCPUs), func(p string) (int, bool) {
		n, err := strconv.Atoi(p)
		return n, err == nil && n >= 1 && n <= machine.MaxCPUs
	})
}

// Shards parses a list of shard counts (-shards) into *dst.
func Shards(dst *[]int, s string) error {
	return list(dst, "shards", s, "shard count", "a positive integer", func(p string) (int, bool) {
		n, err := strconv.Atoi(p)
		return n, err == nil && n > 0
	})
}

// Rates parses a list of offered loads in requests per second (-rates)
// into *dst.
func Rates(dst *[]float64, s string) error {
	return list(dst, "rates", s, "rate", "positive req/s", func(p string) (float64, bool) {
		v, err := strconv.ParseFloat(p, 64)
		return v, err == nil && v > 0
	})
}

// Skews parses a list of Zipf exponents (-skews) into *dst; the service
// config checks their range.
func Skews(dst *[]float64, s string) error {
	return list(dst, "skews", s, "skew", "a number", func(p string) (float64, bool) {
		v, err := strconv.ParseFloat(p, 64)
		return v, err == nil
	})
}

// Output is an open output destination: a created file, or stdout.
type Output struct {
	io.Writer
	file *os.File // nil for stdout
}

// Create opens the destination an output flag names: stdout for "" or
// "-", otherwise a new file.
func Create(path string) (*Output, error) {
	if path == "" || path == "-" {
		return &Output{Writer: os.Stdout}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Output{Writer: f, file: f}, nil
}

// Close closes a created file and reports its error; stdout stays open.
func (o *Output) Close() error {
	if o.file == nil {
		return nil
	}
	return o.file.Close()
}

// WriteFile writes fn's output to path (stdout for "-") and closes it.
func WriteFile(path string, fn func(io.Writer) error) error {
	o, err := Create(path)
	if err != nil {
		return err
	}
	err = fn(o)
	if cerr := o.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteAll writes every item with write to path (stdout for "-") and
// closes it.
func WriteAll[T any](path string, items []T, write func(T, io.Writer) error) error {
	return WriteFile(path, func(w io.Writer) error {
		for _, item := range items {
			if err := write(item, w); err != nil {
				return err
			}
		}
		return nil
	})
}
