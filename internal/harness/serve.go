package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"hrwle/internal/core"
	"hrwle/internal/obs"
	"hrwle/internal/service"
)

// ServeSchemes is the default scheme set of the open-system service sweep:
// the paper's contribution, the classic elision baseline, and the
// non-speculative floor.
func ServeSchemes() []string { return []string{"RW-LE_OPT", "HLE", "RWL", "SGL"} }

// ServeSpec describes one hrwle-serve sweep: a base point configuration
// plus the offered-load grid and scheme set swept over it.
type ServeSpec struct {
	Base    service.Config
	Schemes []string
	Rates   []float64 // offered loads, requests per virtual second
}

// ServeWorkloads lists the workloads hrwle-serve can drive, in menu order.
func ServeWorkloads() []string { return []string{"hashmap", "kyoto", "tpcc"} }

// DefaultServeSpec returns the calibrated sweep for a workload: six
// offered-load points chosen to straddle the slowest default scheme's
// saturation knee (see EXPERIMENTS.md for the calibration method), so the
// default sweep always shows both the flat low-load region and the
// post-knee divergence.
func DefaultServeSpec(workload string) (ServeSpec, error) {
	spec := ServeSpec{
		Base:    service.DefaultConfig(workload),
		Schemes: ServeSchemes(),
	}
	switch workload {
	case "hashmap":
		spec.Rates = []float64{4e5, 8e5, 1.5e6, 3e6, 6e6, 1.4e7}
	case "kyoto":
		spec.Rates = []float64{2e5, 4e5, 6e5, 8e5, 1.1e6, 1.6e6}
	case "tpcc":
		spec.Rates = []float64{8e4, 1.5e5, 2.2e5, 3e5, 4.5e5, 7e5}
	default:
		return spec, fmt.Errorf("unknown serve workload %q (hashmap|kyoto|tpcc)", workload)
	}
	return spec, nil
}

// NumPoints returns the sweep's point count.
func (s *ServeSpec) NumPoints() int { return len(s.Schemes) * len(s.Rates) }

// ServeReport is the exportable result of one serve sweep. Points are in
// deterministic scheme-major, rate-minor order regardless of how many
// workers ran the sweep.
type ServeReport struct {
	Workload    string                `json:"workload"`
	Process     string                `json:"process"`
	Servers     int                   `json:"servers"`
	QueueCap    int                   `json:"queue_cap"`
	Requests    int                   `json:"requests"`
	Seed        uint64                `json:"seed"`
	Schemes     []string              `json:"schemes"`
	RatesPerSec []float64             `json:"rates_per_sec"`
	Points      []*obs.ServiceMetrics `json:"points"`
}

// WriteJSON writes the report as deterministic indented JSON.
func (r *ServeReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// catchLivelock, deferred by a sweep point, turns RW-LE_basic's capacity
// livelock — a core.LivelockError panic raised inside the simulation —
// into the point's error, prefixed with point. Any other panic, the HTM
// abort signal included, is re-raised verbatim.
func catchLivelock(err *error, point string) {
	r := recover()
	if r == nil {
		return
	}
	le, ok := r.(*core.LivelockError)
	if !ok {
		panic(r)
	}
	*err = fmt.Errorf("%s: %w", point, le)
}

// RunServe sweeps scheme × offered-load with RunIndexed on up to workers
// goroutines (workers <= 1 means serial). Each point builds its own
// machine from the same seed, so the report is bit-identical at any worker
// count, and so is the error of a failing sweep; progress lines are
// emitted as points complete, so only their order varies.
func RunServe(spec ServeSpec, workers int, progress io.Writer) (*ServeReport, error) {
	if err := CheckSchemes(spec.Schemes); err != nil {
		return nil, err
	}
	base := spec.Base
	report := &ServeReport{
		Workload:    base.Workload,
		Process:     base.Arrivals.Process.String(),
		Servers:     base.Servers,
		QueueCap:    base.QueueCap,
		Requests:    base.Requests,
		Seed:        base.Seed,
		Schemes:     spec.Schemes,
		RatesPerSec: spec.Rates,
		Points:      make([]*obs.ServiceMetrics, spec.NumPoints()),
	}

	run := func(i int) (err error) {
		// Point i is (scheme, rate) in the scheme-major order of
		// ServeReport.point.
		scheme, rate := spec.Schemes[i/len(spec.Rates)], spec.Rates[i%len(spec.Rates)]
		point := fmt.Sprintf("serve point %s/%s@%.0f/s", base.Workload, scheme, rate)
		defer catchLivelock(&err, point)
		cfg := base
		cfg.Arrivals.RatePerSec = rate
		m, _, err := service.RunPoint(cfg, scheme, SchemeFactory(scheme), nil)
		if err != nil {
			return fmt.Errorf("%s: %w", point, err)
		}
		report.Points[i] = m
		return nil
	}
	var done func(int)
	if progress != nil {
		done = func(i int) {
			m := report.Points[i]
			fmt.Fprintf(progress, "  serve %s %-12s offered=%9.0f/s achieved=%9.0f/s dropped=%d\n",
				base.Workload, m.Scheme, m.OfferedPerSec, m.AchievedPerSec, m.Dropped)
		}
	}
	if err := RunIndexed(spec.NumPoints(), workers, run, done); err != nil {
		return nil, err
	}
	return report, nil
}

// point returns the metrics of (scheme index, rate index).
func (r *ServeReport) point(si, ri int) *obs.ServiceMetrics {
	return r.Points[si*len(r.RatesPerSec)+ri]
}

// WriteText renders the sweep as text: the saturation panels (achieved
// throughput, drop rate, per-class p99 sojourn — offered load down the
// rows, schemes across the columns), then the per-point detail blocks.
func (r *ServeReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# open-system service sweep — %s (%s arrivals, %d servers, queue cap %d, %d requests, seed %d)\n",
		r.Workload, r.Process, r.Servers, r.QueueCap, r.Requests, r.Seed)

	header := func(title string) {
		fmt.Fprintf(w, "\n## %s\n%12s", title, "offered/s")
		for _, s := range r.Schemes {
			fmt.Fprintf(w, " %12s", s)
		}
		fmt.Fprintln(w)
	}
	panel := func(title string, cell func(m *obs.ServiceMetrics) float64, format string) {
		header(title)
		for ri, rate := range r.RatesPerSec {
			fmt.Fprintf(w, "%12.0f", rate)
			for si := range r.Schemes {
				fmt.Fprintf(w, " "+format, cell(r.point(si, ri)))
			}
			fmt.Fprintln(w)
		}
	}

	panel("achieved throughput (req/s)",
		func(m *obs.ServiceMetrics) float64 { return m.AchievedPerSec }, "%12.0f")
	panel("drop rate (% of arrivals)",
		func(m *obs.ServiceMetrics) float64 {
			return 100 * float64(m.Dropped) / float64(m.Requests)
		}, "%12.2f")
	if len(r.Points) > 0 && r.Points[0] != nil {
		for ci := range r.Points[0].Classes {
			ci := ci
			panel(fmt.Sprintf("%s sojourn p99 (us, priority %d)", r.Points[0].Classes[ci].Class, ci),
				func(m *obs.ServiceMetrics) float64 {
					return obs.Usec(m.Classes[ci].Sojourn.P99Cycles)
				}, "%12.1f")
		}
	}

	fmt.Fprintf(w, "\n## per-point detail\n")
	for si := range r.Schemes {
		for ri := range r.RatesPerSec {
			r.point(si, ri).WriteText(w)
		}
	}
}
