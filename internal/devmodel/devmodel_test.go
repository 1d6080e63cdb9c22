package devmodel

import (
	"testing"
	"time"

	"ipmgo/internal/perfmodel"
)

func TestBuiltinBackends(t *testing.T) {
	want := []string{"a100", "c2050", "cl-generic"}
	got := Names()
	if len(got) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", got, want)
	}
	for _, n := range want {
		s, ok := Lookup(n)
		if !ok {
			t.Fatalf("Lookup(%q) missing", n)
		}
		if s.Name != n {
			t.Errorf("Lookup(%q).Name = %q", n, s.Name)
		}
		if s.GPU.Name == "" || s.GPU.MultiProcessors == 0 {
			t.Errorf("backend %q has incomplete GPU spec: %+v", n, s.GPU)
		}
		if s.Power.Zero() {
			t.Errorf("backend %q has no power model", n)
		}
	}
}

func TestC2050MatchesSeedSpec(t *testing.T) {
	s, ok := Lookup("c2050")
	if !ok {
		t.Fatal("c2050 not registered")
	}
	if s.GPU != perfmodel.TeslaC2050() {
		t.Errorf("c2050 GPU spec diverged from perfmodel.TeslaC2050():\n got %+v\nwant %+v",
			s.GPU, perfmodel.TeslaC2050())
	}
	if s.EffectiveCopyEngines() != 1 {
		t.Errorf("c2050 copy engines = %d, want 1", s.EffectiveCopyEngines())
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not strictly sorted: %v", names)
		}
	}
	specs := List()
	if len(specs) != len(names) {
		t.Fatalf("List() returned %d specs for %d names", len(specs), len(names))
	}
	for i, s := range specs {
		if s.Name != names[i] {
			t.Errorf("List()[%d].Name = %q, want %q", i, s.Name, names[i])
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("c2050", Spec{})
}

func TestCustom(t *testing.T) {
	c := Custom(perfmodel.TeslaC2050())
	if c.Name != "" {
		t.Errorf("Custom spec has registry name %q", c.Name)
	}
	if !c.Defined() {
		t.Error("Custom spec with a GPU name should be Defined")
	}
	if c.EffectiveCopyEngines() != 1 {
		t.Errorf("Custom copy engines = %d, want 1", c.EffectiveCopyEngines())
	}
	if !c.Power.Zero() {
		t.Errorf("Custom power = %+v, want zero", c.Power)
	}
	if (Spec{}).Defined() {
		t.Error("zero Spec should not be Defined")
	}
}

func TestEnergyNJ(t *testing.T) {
	cases := []struct {
		watts float64
		d     time.Duration
		want  int64
	}{
		{0, time.Second, 0},
		{-5, time.Second, 0},
		{100, 0, 0},
		{100, -time.Second, 0},
		{1, time.Nanosecond, 1},        // 1 W x 1 ns = 1 nJ
		{190, time.Millisecond, 190e6}, // kernel-scale
		{70, 250 * time.Microsecond, 17500000},
		{0.5, time.Nanosecond, 1}, // rounds, not truncates
	}
	for _, c := range cases {
		if got := EnergyNJ(c.watts, c.d); got != c.want {
			t.Errorf("EnergyNJ(%v, %v) = %d, want %d", c.watts, c.d, got, c.want)
		}
	}
}

func TestActiveEnergyNJ(t *testing.T) {
	p := PowerSpec{KernelWatts: 100, CopyWatts: 50, MemsetWatts: 25}
	got := p.ActiveEnergyNJ(time.Millisecond, time.Millisecond, time.Millisecond)
	want := int64(100e6 + 50e6 + 25e6)
	if got != want {
		t.Errorf("ActiveEnergyNJ = %d, want %d", got, want)
	}
}
