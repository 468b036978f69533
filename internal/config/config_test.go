package config

import (
	"bytes"
	"strings"
	"testing"
)

func TestDefaultNormalizes(t *testing.T) {
	f := Default()
	if err := f.Normalize(); err != nil {
		t.Fatal(err)
	}
	if f.Design != "elp2im" || f.Module.Banks != 8 {
		t.Fatalf("defaults wrong: %+v", f)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := Default()
	f.Design = "ambit"
	f.ReservedRows = 10
	f.PowerConstrained = true
	f.Timing.Precharge = 12
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Design != "ambit" || back.ReservedRows != 10 || !back.PowerConstrained {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Timing.Precharge != 12 {
		t.Fatalf("timing not preserved: %v", back.Timing.Precharge)
	}
}

func TestLoadFillsDefaults(t *testing.T) {
	// A minimal file: only the design — everything else defaults.
	f, err := Load(strings.NewReader(`{"design":"drisa"}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Design != "drisa" {
		t.Fatal("design lost")
	}
	if f.Module == nil || f.Timing == nil || f.Power == nil || f.Circuit == nil {
		t.Fatal("defaults not filled")
	}
	if f.Timing.Precharge != 14 {
		t.Fatalf("timing default wrong: %v", f.Timing.Precharge)
	}
}

func TestLoadPartialSection(t *testing.T) {
	// Overriding one section replaces it wholesale (documented JSON
	// semantics): the user supplies a complete section.
	src := `{"timing":{"AccessSense":13,"Restore":19,"Precharge":12.5,
		"OverlapActivate":3.5,"PseudoPrechargeFactor":1.3,
		"TFAW":30,"ActivatesPerTFAW":4,"Clock":0.833}}`
	f, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.Timing.Precharge != 12.5 {
		t.Fatalf("timing override lost: %v", f.Timing.Precharge)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		`{`,
		`{"design":"tpu"}`,
		`{"unknown_field":1}`,
		`{"module":{"Banks":0}}`,
		`{"timing":{"AccessSense":-1}}`,
		`{"reserved_rows":-2}`,
		// Not keys of the schema.
		`{"disable_fusion":true}`,
		`{"disable_fastpath":true}`,
	} {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("Load(%q) accepted", src)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/params.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
