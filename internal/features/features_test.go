package features

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func sampleVector(vm string, t, mem float64) Vector {
	v := NewVector(vm, t)
	v.Set(MemUsedMB, mem)
	v.Set(ThreadCount, 100)
	v.Set(ResponseTimeMs, 50)
	return v
}

func TestVectorGetSetFlatten(t *testing.T) {
	v := NewVector("vm1", 10)
	v.Set(MemUsedMB, 512)
	v.Set(SwapUsedMB, 32)
	if v.Get(MemUsedMB) != 512 {
		t.Fatal("Get should return the stored value")
	}
	if v.Get(HeapMB) != 0 {
		t.Fatal("missing feature should read as 0")
	}
	flat := v.Flatten([]Name{MemUsedMB, SwapUsedMB, HeapMB})
	if flat[0] != 512 || flat[1] != 32 || flat[2] != 0 {
		t.Fatalf("flatten wrong: %v", flat)
	}
}

func TestAllNamesStableAndUnique(t *testing.T) {
	names := AllNames()
	if len(names) < 15 {
		t.Fatalf("expected a wide feature set, got %d", len(names))
	}
	seen := map[Name]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %s", n)
		}
		seen[n] = true
	}
	// Calling twice must give the same order.
	again := AllNames()
	for i := range names {
		if names[i] != again[i] {
			t.Fatal("AllNames order must be stable")
		}
	}
}

func TestDatasetMatrix(t *testing.T) {
	d := NewDataset([]Name{MemUsedMB, ThreadCount})
	d.Add(Sample{Vector: sampleVector("vm1", 0, 100), RTTFSeconds: 300})
	d.Add(Sample{Vector: sampleVector("vm1", 10, 200), RTTFSeconds: 290})
	x, y := d.Matrix()
	if len(x) != 2 || len(y) != 2 {
		t.Fatalf("matrix size wrong: %d %d", len(x), len(y))
	}
	if x[1][0] != 200 || x[1][1] != 100 {
		t.Fatalf("matrix row wrong: %v", x[1])
	}
	if y[0] != 300 {
		t.Fatalf("label wrong: %f", y[0])
	}
}

func TestDatasetProject(t *testing.T) {
	d := NewDataset(nil)
	d.Add(Sample{Vector: sampleVector("vm1", 0, 100), RTTFSeconds: 10})
	p := d.Project([]Name{MemUsedMB})
	if len(p.Features) != 1 || p.Features[0] != MemUsedMB {
		t.Fatalf("projection features wrong: %v", p.Features)
	}
	x, _ := p.Matrix()
	if len(x[0]) != 1 || x[0][0] != 100 {
		t.Fatalf("projected matrix wrong: %v", x)
	}
}

func TestDatasetSplitByTimePerVM(t *testing.T) {
	d := NewDataset([]Name{MemUsedMB})
	for i := 0; i < 10; i++ {
		d.Add(Sample{Vector: sampleVector("vm1", float64(i), float64(i)), RTTFSeconds: 1})
		d.Add(Sample{Vector: sampleVector("vm2", float64(i), float64(i)), RTTFSeconds: 1})
	}
	train, test := d.Split(0.7)
	if train.Len() != 14 || test.Len() != 6 {
		t.Fatalf("split sizes wrong: %d/%d", train.Len(), test.Len())
	}
	// All training samples for a VM must precede its test samples in time.
	maxTrain := map[string]float64{}
	for _, s := range train.Samples {
		if s.Vector.TimeS > maxTrain[s.Vector.VM] {
			maxTrain[s.Vector.VM] = s.Vector.TimeS
		}
	}
	for _, s := range test.Samples {
		if s.Vector.TimeS <= maxTrain[s.Vector.VM] {
			t.Fatalf("test sample at t=%f precedes training cut %f for %s",
				s.Vector.TimeS, maxTrain[s.Vector.VM], s.Vector.VM)
		}
	}
	// Degenerate fractions are clamped.
	tr, te := d.Split(0)
	if tr.Len() == 0 || te.Len() == 0 {
		t.Fatal("clamped split should produce non-empty parts")
	}
	tr, te = d.Split(1.5)
	if tr.Len() == 0 {
		t.Fatal("clamped split should produce non-empty training set")
	}
	_ = te
}

func TestDatasetVMs(t *testing.T) {
	d := NewDataset(nil)
	d.Add(Sample{Vector: sampleVector("b", 0, 1)})
	d.Add(Sample{Vector: sampleVector("a", 0, 1)})
	d.Add(Sample{Vector: sampleVector("a", 1, 2)})
	vms := d.VMs()
	if len(vms) != 2 || vms[0] != "a" || vms[1] != "b" {
		t.Fatalf("VMs wrong: %v", vms)
	}
}

// roundTripDataset is the dataset TestCSVRoundTrip writes and reads back;
// its CSV form also seeds FuzzReadCSV.
func roundTripDataset() *Dataset {
	d := NewDataset([]Name{MemUsedMB, ThreadCount, ResponseTimeMs})
	d.Add(Sample{Vector: sampleVector("vm1", 0, 100), RTTFSeconds: 300})
	d.Add(Sample{Vector: sampleVector("vm2", 5, 150), RTTFSeconds: 250})
	return d
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := roundTripDataset().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || len(got.Features) != 3 {
		t.Fatalf("round trip lost data: %d samples, %d features", got.Len(), len(got.Features))
	}
	if got.Samples[1].Vector.VM != "vm2" || got.Samples[1].RTTFSeconds != 250 {
		t.Fatalf("round trip corrupted sample: %+v", got.Samples[1])
	}
	if got.Samples[0].Vector.Get(MemUsedMB) != 100 {
		t.Fatal("feature value lost in round trip")
	}
}

// FuzzReadCSV checks that any input either fails to parse or yields a
// dataset that survives a WriteCSV -> ReadCSV round trip unchanged.
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := roundTripDataset().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("time_s,vm,rttf_s\n")
	f.Add("time_s,vm,mem_used_mb,rttf_s\n0.1234567890123,\"vm,1\",NaN,-Inf\n")
	f.Fuzz(func(t *testing.T, in string) {
		d, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := d.WriteCSV(&out); err != nil {
			t.Fatalf("WriteCSV of a parsed dataset: %v", err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("ReadCSV of written CSV %q: %v", out.String(), err)
		}
		if !slices.Equal(back.Features, d.Features) {
			t.Fatalf("features %v, want %v", back.Features, d.Features)
		}
		if back.Len() != d.Len() {
			t.Fatalf("%d samples, want %d", back.Len(), d.Len())
		}
		same := func(a, b float64) bool { return a == b || (a != a && b != b) }
		for i, want := range d.Samples {
			got := back.Samples[i]
			if got.Vector.VM != want.Vector.VM || !same(got.Vector.TimeS, want.Vector.TimeS) ||
				!same(got.RTTFSeconds, want.RTTFSeconds) {
				t.Fatalf("sample %d = %+v, want %+v", i, got, want)
			}
			for _, n := range d.Features {
				if !same(got.Vector.Get(n), want.Vector.Get(n)) {
					t.Fatalf("sample %d feature %s = %v, want %v", i, n, got.Vector.Get(n), want.Vector.Get(n))
				}
			}
		}
	})
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Fatal("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Fatal("bad header should error")
	}
	bad := "time_s,vm,mem_used_mb,rttf_s\nnot_a_number,vm1,1,2\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric time should error")
	}
	bad = "time_s,vm,mem_used_mb,rttf_s\n1,vm1,xx,2\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric feature should error")
	}
	bad = "time_s,vm,mem_used_mb,rttf_s\n1,vm1,1,yy\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Fatal("non-numeric label should error")
	}
	// A feature column must name a known feature, and at most once; the
	// error names the offending column.
	for _, c := range []struct{ in, column string }{
		{"time_s,vm,mem_used_mb,bogus_metric,rttf_s\n1,vm1,1,2,3\n", "bogus_metric"},
		{"time_s,vm,mem_used_mb,heap_mb,mem_used_mb,rttf_s\n1,vm1,1,2,3,4\n", "mem_used_mb"},
	} {
		_, err := ReadCSV(strings.NewReader(c.in))
		if err == nil {
			t.Fatalf("column %s should error", c.column)
		}
		if !strings.Contains(err.Error(), `"`+c.column+`"`) {
			t.Fatalf("error %q does not name column %s", err, c.column)
		}
	}
}

func TestLabelRTTF(t *testing.T) {
	vectors := []Vector{
		sampleVector("vm1", 10, 1),
		sampleVector("vm1", 50, 2),
		sampleVector("vm1", 150, 3), // after the only failure: dropped
		sampleVector("vm2", 10, 4),
	}
	failures := map[string][]float64{
		"vm1": {100},
		"vm2": {40, 20}, // unsorted on purpose
	}
	samples := LabelRTTF(vectors, failures)
	if len(samples) != 3 {
		t.Fatalf("expected 3 labelled samples, got %d", len(samples))
	}
	if samples[0].RTTFSeconds != 90 {
		t.Fatalf("vm1@10 RTTF should be 90, got %f", samples[0].RTTFSeconds)
	}
	if samples[1].RTTFSeconds != 50 {
		t.Fatalf("vm1@50 RTTF should be 50, got %f", samples[1].RTTFSeconds)
	}
	// vm2@10 should use the earliest later failure (20), not 40.
	if samples[2].RTTFSeconds != 10 {
		t.Fatalf("vm2@10 RTTF should be 10, got %f", samples[2].RTTFSeconds)
	}
}

func TestLabelRTTFNoFailures(t *testing.T) {
	samples := LabelRTTF([]Vector{sampleVector("vm1", 0, 1)}, map[string][]float64{})
	if len(samples) != 0 {
		t.Fatal("samples with no later failure must be dropped")
	}
}
