package cnn

import (
	"math"
	"testing"

	"repro/internal/ambit"
	"repro/internal/drisa"
	"repro/internal/elpim"
	"repro/internal/engine"
)

func accelDesigns(t *testing.T) (ambitD, elpimD, drisaD engine.Engine) {
	t.Helper()
	// Accelerator configurations use two reserved rows for ELP2IM (§6.3:
	// "we construct ELP2IM with two reserved rows").
	ecfg := elpim.DefaultConfig()
	ecfg.ReservedRows = 2
	return ambit.MustNew(ambit.DefaultConfig()),
		elpim.MustNew(ecfg),
		drisa.MustNew(drisa.DefaultConfig())
}

func TestNetworksValidate(t *testing.T) {
	for _, n := range append(DraccNetworks(), NIDNetworks()...) {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// TestMACCountsNearPublished pins each network's total MACs to the
// published values within 10%.
func TestMACCountsNearPublished(t *testing.T) {
	want := map[string]float64{
		"Lenet5":   0.42e6,
		"Cifar10":  12.3e6,
		"Alexnet":  0.72e9,
		"VGG16":    15.5e9,
		"VGG19":    19.6e9,
		"Resnet18": 1.82e9,
		"Resnet34": 3.67e9,
		"Resnet50": 4.1e9,
	}
	nets := map[string]Network{}
	for _, n := range append(DraccNetworks(), NIDNetworks()...) {
		nets[n.Name] = n
	}
	for name, w := range want {
		n, ok := nets[name]
		if !ok {
			t.Fatalf("network %s missing", name)
		}
		got := n.MACs()
		if math.Abs(got-w)/w > 0.10 {
			t.Errorf("%s MACs = %.3g, want %.3g ±10%%", name, got, w)
		}
	}
}

func TestWeightCountsNearPublished(t *testing.T) {
	want := map[string]float64{
		"Alexnet":  61e6,
		"VGG16":    138e6,
		"Resnet50": 25.5e6,
	}
	nets := map[string]Network{}
	for _, n := range append(DraccNetworks(), NIDNetworks()...) {
		nets[n.Name] = n
	}
	for name, w := range want {
		got := nets[name].Weights()
		if math.Abs(got-w)/w > 0.10 {
			t.Errorf("%s weights = %.3g, want %.3g ±10%%", name, got, w)
		}
	}
}

func TestLayerGeometry(t *testing.T) {
	l := Layer{Kind: Conv, InC: 3, InH: 227, InW: 227, OutC: 96, K: 11, Stride: 4}
	if l.OutH() != 55 || l.OutW() != 55 {
		t.Errorf("AlexNet conv1 output = %dx%d, want 55x55", l.OutH(), l.OutW())
	}
	if got := l.MACs(); got != 55*55*96*11*11*3 {
		t.Errorf("conv MACs = %v", got)
	}
	if got := l.Weights(); got != 96*11*11*3 {
		t.Errorf("conv weights = %v", got)
	}
}

func TestLayerValidate(t *testing.T) {
	bad := []Layer{
		{Kind: Conv, Name: "x"},                                                   // no geometry
		{Kind: FC, Name: "y", InF: 0, OutF: 10},                                   // empty fc
		{Kind: Conv, Name: "z", InC: 1, InH: 2, InW: 2, OutC: 1, K: 5, Stride: 1}, // empty output
		{Kind: LayerKind(9), Name: "w"},                                           // unknown kind
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("invalid layer %q accepted", l.Name)
		}
	}
	if err := (Network{Name: "empty"}).Validate(); err == nil {
		t.Error("empty network accepted")
	}
}

func TestDraccAddLatencyAnchor(t *testing.T) {
	// §2.2.3: the 13-command Dracc ADD takes ~630 ns on the Ambit
	// approach (13 × 49 ns cycles).
	a, e, d := accelDesigns(t)
	cfg := DefaultAccel()
	ambitAdd := DraccAddNS(a, a, cfg.Timing)
	if math.Abs(ambitAdd-637) > 5 {
		t.Errorf("Ambit Dracc ADD = %v ns, want ~637 (13 × 49)", ambitAdd)
	}
	elpAdd := DraccAddNS(e, a, cfg.Timing)
	if elpAdd >= ambitAdd {
		t.Errorf("ELP2IM ADD (%v) must beat Ambit (%v)", elpAdd, ambitAdd)
	}
	drAdd := DraccAddNS(d, a, cfg.Timing)
	if drAdd <= ambitAdd {
		t.Errorf("Drisa ADD (%v) must be slower than Ambit (%v)", drAdd, ambitAdd)
	}
}

func TestTable2ImprovementBands(t *testing.T) {
	// Table 2: ELP2IM improves Dracc FPS by 1.08–1.14×; Drisa_nor loses
	// ~31% (0.65–0.79×). Bands widened slightly for model tolerance.
	a, e, d := accelDesigns(t)
	rows, err := Table2(a, e, d, DefaultAccel())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table 2 rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.ELP2IMImprovement < 1.03 || r.ELP2IMImprovement > 1.25 {
			t.Errorf("%s: ELP2IM improvement = %.3f, want within [1.03, 1.25] (paper: 1.08–1.14)",
				r.Network, r.ELP2IMImprovement)
		}
		if r.DrisaImprovement < 0.60 || r.DrisaImprovement > 0.90 {
			t.Errorf("%s: Drisa improvement = %.3f, want within [0.60, 0.90] (paper: 0.65–0.79)",
				r.Network, r.DrisaImprovement)
		}
	}
}

func TestTable3ImprovementBands(t *testing.T) {
	// Table 3: ELP2IM improves NID FPS by 1.11–1.32×; Drisa loses 0.73–0.91×.
	a, e, d := accelDesigns(t)
	rows, err := Table3(a, e, d, DefaultAccel())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("Table 3 rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.ELP2IMImprovement < 1.08 || r.ELP2IMImprovement > 1.40 {
			t.Errorf("%s: ELP2IM improvement = %.3f, want within [1.08, 1.40] (paper: 1.11–1.32)",
				r.Network, r.ELP2IMImprovement)
		}
		if r.DrisaImprovement < 0.55 || r.DrisaImprovement > 0.95 {
			t.Errorf("%s: Drisa improvement = %.3f, want within [0.55, 0.95] (paper: 0.73–0.91)",
				r.Network, r.DrisaImprovement)
		}
	}
}

func TestNIDGainExceedsDraccGain(t *testing.T) {
	// §6.3.3: the count-heavy NID kernels give ELP2IM more optimization
	// space than Dracc's fixed 13-command add (avg 1.26× vs 1.12×).
	a, e, d := accelDesigns(t)
	t2, err := Table2(a, e, d, DefaultAccel())
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(a, e, d, DefaultAccel())
	if err != nil {
		t.Fatal(err)
	}
	avg := func(rows []TableRow) float64 {
		s := 0.0
		for _, r := range rows {
			s += r.ELP2IMImprovement
		}
		return s / float64(len(rows))
	}
	if avg(t3) <= avg(t2) {
		t.Errorf("NID avg improvement %.3f must exceed Dracc's %.3f", avg(t3), avg(t2))
	}
}

func TestFPSOrderingByNetworkSize(t *testing.T) {
	a, e, d := accelDesigns(t)
	t2, err := Table2(a, e, d, DefaultAccel())
	if err != nil {
		t.Fatal(err)
	}
	// Lenet5 > Cifar10 > Alexnet > VGG16 > VGG19 in FPS for every design.
	for i := 1; i < len(t2); i++ {
		if t2[i].ELP2IMFPS >= t2[i-1].ELP2IMFPS {
			t.Errorf("Table 2 FPS not decreasing: %s %.3g !< %s %.3g",
				t2[i].Network, t2[i].ELP2IMFPS, t2[i-1].Network, t2[i-1].ELP2IMFPS)
		}
	}
	t3, err := Table3(a, e, d, DefaultAccel())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(t3); i++ {
		if t3[i].AmbitFPS >= t3[i-1].AmbitFPS {
			t.Errorf("Table 3 FPS not decreasing: %s vs %s", t3[i].Network, t3[i-1].Network)
		}
	}
}

func TestRunErrors(t *testing.T) {
	a, e, _ := accelDesigns(t)
	if _, err := RunDracc(Network{}, e, a, DefaultAccel()); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := RunDracc(LeNet5(), e, a, AccelConfig{}); err == nil {
		t.Error("invalid accel config accepted")
	}
	if _, err := RunNID(Network{}, e, DefaultAccel()); err == nil {
		t.Error("empty network accepted by NID")
	}
	if err := (AccelConfig{Lanes: 1, CopyBitsPerNS: 0}).Validate(); err == nil {
		t.Error("zero movement bandwidth accepted")
	}
}

func TestComputeSlicesCeiling(t *testing.T) {
	n := Network{Name: "tiny", Layers: []Layer{
		fc("a", 10, 10),  // 100 MACs → 1 slice
		fc("b", 100, 11), // 1100 MACs → 2 slices at 1000 lanes
	}}
	if got := computeSlices(n, 1000); got != 3 {
		t.Errorf("slices = %v, want 3", got)
	}
}

func TestDraccBreakdown(t *testing.T) {
	a, e, _ := accelDesigns(t)
	cfg := DefaultAccel()
	layers, err := DraccBreakdown(LeNet5(), e, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) == 0 {
		t.Fatal("no layers")
	}
	var total float64
	for _, l := range layers {
		if l.Slices <= 0 || l.ComputeNS <= 0 {
			t.Fatalf("layer %s has empty cost", l.Name)
		}
		if l.Utilization <= 0 || l.Utilization > 1 {
			t.Fatalf("layer %s utilization %v outside (0,1]", l.Name, l.Utilization)
		}
		total += l.ComputeNS
	}
	// The breakdown must sum to the whole-network compute time.
	r, err := RunDracc(LeNet5(), e, a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-r.ComputeNS) > 1e-6*r.ComputeNS {
		t.Fatalf("breakdown sums to %v, RunDracc computes %v", total, r.ComputeNS)
	}
	// Pool layers (no MACs) are excluded.
	for _, l := range layers {
		if l.MACs == 0 {
			t.Fatalf("zero-MAC layer %s included", l.Name)
		}
	}
	if _, err := DraccBreakdown(Network{}, e, a, cfg); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := DraccBreakdown(LeNet5(), e, a, AccelConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSmallLayersUnderutilize(t *testing.T) {
	// LeNet's tiny FC layers must show low fabric utilization — the
	// mechanism behind small networks' sublinear FPS.
	a, e, _ := accelDesigns(t)
	layers, err := DraccBreakdown(LeNet5(), e, a, DefaultAccel())
	if err != nil {
		t.Fatal(err)
	}
	var fc3 *LayerCost
	for i := range layers {
		if layers[i].Name == "fc3" {
			fc3 = &layers[i]
		}
	}
	if fc3 == nil {
		t.Fatal("fc3 missing")
	}
	if fc3.Utilization > 0.1 {
		t.Fatalf("fc3 utilization %v, expected tiny (840 MACs on a 32K-lane fabric)", fc3.Utilization)
	}
}
