// Package features defines the system-feature vectors collected from virtual
// machines, the feature database built by the F2PM monitoring agents, and the
// Remaining-Time-To-Failure (RTTF) labelling used to train the machine
// learning prediction models.
//
// In the paper a thin software client measures "a large set of system
// features, such as memory usage, CPU time, and swap space usage" on each
// monitored VM and ships them to a feature monitor agent, which builds a
// database for later use by the ML toolchain.  This package is that database.
package features

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Name identifies one monitored system feature.  It is the feature's index
// in AllNames order, which is also its slot in Vector.Values; String returns
// the feature's text name as written in CSV headers and reports.
type Name uint8

// The feature set collected from each VM.  It mirrors the kind of metrics
// F2PM gathers (memory, swap, CPU, threads, response time); the exact list is
// intentionally wider than what the models end up using, because part of the
// F2PM workflow is selecting the relevant subset via Lasso regularisation.
const (
	MemUsedMB        Name = iota // resident memory used by the server process
	MemFreeMB                    // free physical memory on the VM
	SwapUsedMB                   // swap space in use
	HeapMB                       // application heap footprint
	ThreadCount                  // live threads in the server process
	ZombieThreads                // unterminated (leaked) threads
	CPUUtilization               // [0,1] utilisation of the VM's vCPUs
	CPUTimeSec                   // cumulative CPU seconds consumed
	DiskUsedMB                   // virtual disk occupancy
	NetConnections               // open TCP connections
	RequestRate                  // requests/second observed in the last interval
	ResponseTimeMs               // mean response time in the last interval
	QueueLength                  // pending requests queued at the VM
	PageFaultRate                // page faults/second
	ContextSwitches              // context switches/second
	UptimeSec                    // seconds since the last rejuvenation
	GCPauseMs                    // garbage-collector pause time in the last interval
	OpenFiles                    // open file descriptors
	SocketsTimeWait              // sockets lingering in TIME_WAIT
	AnomalyEventRate             // injected anomaly events/second (observable only in simulation)
)

// NumFeatures is the number of monitored features: the length of
// Vector.Values and of AllNames.
const NumFeatures = int(AnomalyEventRate) + 1

// nameText holds the text name of each feature, indexed by Name.
var nameText = [NumFeatures]string{
	MemUsedMB:        "mem_used_mb",
	MemFreeMB:        "mem_free_mb",
	SwapUsedMB:       "swap_used_mb",
	HeapMB:           "heap_mb",
	ThreadCount:      "thread_count",
	ZombieThreads:    "zombie_threads",
	CPUUtilization:   "cpu_utilization",
	CPUTimeSec:       "cpu_time_s",
	DiskUsedMB:       "disk_used_mb",
	NetConnections:   "net_connections",
	RequestRate:      "request_rate",
	ResponseTimeMs:   "response_time_ms",
	QueueLength:      "queue_length",
	PageFaultRate:    "page_fault_rate",
	ContextSwitches:  "context_switches",
	UptimeSec:        "uptime_s",
	GCPauseMs:        "gc_pause_ms",
	OpenFiles:        "open_files",
	SocketsTimeWait:  "sockets_time_wait",
	AnomalyEventRate: "anomaly_event_rate",
}

// String returns the feature's text name ("mem_used_mb", ...).
func (n Name) String() string { return nameText[n] }

// parseName returns the feature whose text name is s.
func parseName(s string) (Name, bool) {
	for i, text := range nameText {
		if text == s {
			return Name(i), true
		}
	}
	return 0, false
}

// AllNames returns the canonical ordered list of feature names.  The order is
// stable so feature vectors can be flattened into ML design matrices
// deterministically.
func AllNames() []Name {
	out := make([]Name, NumFeatures)
	for i := range out {
		out[i] = Name(i)
	}
	return out
}

// Vector is one sample of all monitored features at a given time on a given
// VM.  The values are stored densely in AllNames order — Values[n] is feature
// n — so a Vector is a plain value that is built and copied without
// allocating.
type Vector struct {
	// TimeS is the simulated timestamp of the sample in seconds.
	TimeS float64
	// VM identifies the virtual machine the sample was taken from.
	VM string
	// Values holds the measured value of every feature, indexed by Name.
	Values [NumFeatures]float64
}

// NewVector returns a vector for the given VM and time with every feature 0.
func NewVector(vm string, timeS float64) Vector {
	return Vector{TimeS: timeS, VM: vm}
}

// Get returns the value of the named feature (0 when never set).
func (v Vector) Get(n Name) float64 { return v.Values[n] }

// Set stores the value of the named feature.
func (v *Vector) Set(n Name, val float64) { v.Values[n] = val }

// Flatten returns the values of the requested features in order.
func (v Vector) Flatten(names []Name) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		out[i] = v.Values[n]
	}
	return out
}

// Sample couples a feature vector with its RTTF label (the time remaining
// until the VM hits its failure point, in seconds).  Labelled samples are
// what the F2PM toolchain trains on.
type Sample struct {
	Vector Vector
	// RTTFSeconds is the labelled Remaining Time To Failure.
	RTTFSeconds float64
}

// Dataset is the feature database: a labelled collection of samples plus the
// ordered list of features used when flattening to a design matrix.
type Dataset struct {
	Features []Name
	Samples  []Sample
}

// NewDataset returns an empty dataset over the given features (AllNames when
// nil).
func NewDataset(feats []Name) *Dataset {
	if feats == nil {
		feats = AllNames()
	}
	return &Dataset{Features: append([]Name(nil), feats...)}
}

// Add appends a labelled sample.
func (d *Dataset) Add(s Sample) { d.Samples = append(d.Samples, s) }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Matrix flattens the dataset into a design matrix X (one row per sample, one
// column per feature) and the label vector y.
func (d *Dataset) Matrix() (x [][]float64, y []float64) {
	x = make([][]float64, len(d.Samples))
	y = make([]float64, len(d.Samples))
	for i, s := range d.Samples {
		x[i] = s.Vector.Flatten(d.Features)
		y[i] = s.RTTFSeconds
	}
	return x, y
}

// Project returns a copy of the dataset restricted to the given feature
// subset (used after Lasso feature selection).
func (d *Dataset) Project(feats []Name) *Dataset {
	out := NewDataset(feats)
	out.Samples = d.Samples
	return out
}

// Split partitions the dataset into a training and a test set, putting the
// first trainFrac of samples (per VM, in time order) into the training set.
// Splitting by time rather than randomly mirrors how F2PM operates: models
// are trained on an initial profiling phase and used later at runtime.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	if trainFrac <= 0 {
		trainFrac = 0.7
	}
	if trainFrac >= 1 {
		trainFrac = 0.9
	}
	train = NewDataset(d.Features)
	test = NewDataset(d.Features)

	// Group sample indices by VM, preserving time order.
	byVM := map[string][]int{}
	var vms []string
	for i, s := range d.Samples {
		if _, ok := byVM[s.Vector.VM]; !ok {
			vms = append(vms, s.Vector.VM)
		}
		byVM[s.Vector.VM] = append(byVM[s.Vector.VM], i)
	}
	sort.Strings(vms)
	for _, vm := range vms {
		idx := byVM[vm]
		sort.Slice(idx, func(a, b int) bool {
			return d.Samples[idx[a]].Vector.TimeS < d.Samples[idx[b]].Vector.TimeS
		})
		cut := int(float64(len(idx)) * trainFrac)
		for j, i := range idx {
			if j < cut {
				train.Add(d.Samples[i])
			} else {
				test.Add(d.Samples[i])
			}
		}
	}
	return train, test
}

// VMs returns the distinct VM identifiers present in the dataset, sorted.
func (d *Dataset) VMs() []string {
	set := map[string]struct{}{}
	for _, s := range d.Samples {
		set[s.Vector.VM] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for vm := range set {
		out = append(out, vm)
	}
	sort.Strings(out)
	return out
}

// WriteCSV serialises the dataset as CSV: time, vm, features..., rttf.
// Numbers are written in their shortest exact form, so ReadCSV reads back the
// same values.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"time_s", "vm"}
	for _, f := range d.Features {
		header = append(header, f.String())
	}
	header = append(header, "rttf_s")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range d.Samples {
		row := []string{
			formatFloat(s.Vector.TimeS),
			s.Vector.VM,
		}
		for _, f := range d.Features {
			row = append(row, formatFloat(s.Vector.Get(f)))
		}
		row = append(row, formatFloat(s.RTTFSeconds))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatFloat renders x in the shortest form that parses back to x exactly.
func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// ReadCSV parses a dataset previously written with WriteCSV.  Every feature
// column must name a known feature, and at most once.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 1 {
		return nil, fmt.Errorf("features: empty CSV")
	}
	header := rows[0]
	if len(header) < 3 || header[0] != "time_s" || header[1] != "vm" || header[len(header)-1] != "rttf_s" {
		return nil, fmt.Errorf("features: malformed header %v", header)
	}
	feats := make([]Name, 0, len(header)-3)
	var seen [NumFeatures]bool
	for _, h := range header[2 : len(header)-1] {
		f, ok := parseName(h)
		if !ok {
			return nil, fmt.Errorf("features: unknown feature column %q", h)
		}
		if seen[f] {
			return nil, fmt.Errorf("features: feature column %q given twice", h)
		}
		seen[f] = true
		feats = append(feats, f)
	}
	d := NewDataset(feats)
	for li, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("features: row %d has %d columns, want %d", li+2, len(row), len(header))
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("features: row %d time: %w", li+2, err)
		}
		v := NewVector(row[1], t)
		for fi, f := range feats {
			val, err := strconv.ParseFloat(row[2+fi], 64)
			if err != nil {
				return nil, fmt.Errorf("features: row %d feature %s: %w", li+2, f, err)
			}
			v.Set(f, val)
		}
		rttf, err := strconv.ParseFloat(row[len(row)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("features: row %d rttf: %w", li+2, err)
		}
		d.Add(Sample{Vector: v, RTTFSeconds: rttf})
	}
	return d, nil
}

// LabelRTTF assigns RTTF labels to an ordered sequence of per-VM feature
// vectors given the failure times of each VM.  Samples taken after the last
// known failure of their VM are dropped (their RTTF is unknown), mirroring how
// F2PM constructs its training database from observed failure/rejuvenation
// episodes.
func LabelRTTF(vectors []Vector, failures map[string][]float64) []Sample {
	// Sort each VM's failure times.
	sortedFailures := map[string][]float64{}
	for vm, ts := range failures {
		cp := append([]float64(nil), ts...)
		sort.Float64s(cp)
		sortedFailures[vm] = cp
	}
	var out []Sample
	for _, v := range vectors {
		fts := sortedFailures[v.VM]
		idx := sort.SearchFloat64s(fts, v.TimeS)
		if idx >= len(fts) {
			continue // no later failure observed: label unknown
		}
		out = append(out, Sample{Vector: v, RTTFSeconds: fts[idx] - v.TimeS})
	}
	return out
}
