package core

import (
	"reflect"
	"testing"
)

// TestSpecNormalize is the one table of spellings, defaults and range
// checks every front door shares.
func TestSpecNormalize(t *testing.T) {
	defaults := Spec{
		Model: "F84", TTRatio: 2, Kappa: 2, Jumbles: 1, Seed: 1, Extent: 1, FinalExtent: 1,
		Precision: "float64", Engine: "cached", SmoothMode: "sweep",
	}
	with := func(edit func(*Spec)) Spec {
		s := defaults
		edit(&s)
		return s
	}
	ones := []float64{1, 1, 1, 1, 1, 1}
	for _, tc := range []struct {
		name string
		in   Spec
		want Spec // zero Model = refused
	}{
		{"every default filled", Spec{}, defaults},
		{"defaults spelled out", Spec{Model: " f84 ", TTRatio: 2, Kappa: 2, Jumbles: 1, Seed: 1, Extent: 1, FinalExtent: 1,
			Precision: "double", Engine: "cached", SmoothMode: "sweep"}, defaults},
		{"f84", Spec{Model: "f84"}, defaults},
		{"F84", Spec{Model: "F84"}, defaults},
		{"hky", Spec{Model: "hky"}, with(func(s *Spec) { s.Model = "HKY85" })},
		{"HKY", Spec{Model: "HKY"}, with(func(s *Spec) { s.Model = "HKY85" })},
		{"Hky85", Spec{Model: "Hky85"}, with(func(s *Spec) { s.Model = "HKY85" })},
		{"jc", Spec{Model: "jc"}, with(func(s *Spec) { s.Model = "JC69" })},
		{"K80", Spec{Model: "K80"}, with(func(s *Spec) { s.Model = "K80" })},
		{"gtr, rates defaulted", Spec{Model: "gtr"}, with(func(s *Spec) { s.Model, s.GTRRates = "GTR", ones })},
		{"gtr with rates", Spec{Model: "GTR", GTRRates: []float64{1, 2, 3, 4, 5, 6}},
			with(func(s *Spec) { s.Model, s.GTRRates = "GTR", []float64{1, 2, 3, 4, 5, 6} })},
		{"unknown model", Spec{Model: "WAG"}, Spec{}},
		{"negative ttratio", Spec{TTRatio: -1}, Spec{}},
		{"negative kappa", Spec{Model: "HKY85", Kappa: -3}, Spec{}},
		{"five gtr rates", Spec{Model: "GTR", GTRRates: []float64{1, 2, 3, 4, 5}}, Spec{}},
		{"seven gtr rates", Spec{Model: "GTR", GTRRates: []float64{1, 2, 3, 4, 5, 6, 7}}, Spec{}},
		{"gtr rates without gtr", Spec{Model: "F84", GTRRates: ones}, Spec{}},
		{"negative jumbles", Spec{Jumbles: -1}, Spec{}},
		{"negative extent", Spec{Extent: -1}, Spec{}},
		{"negative final extent", Spec{FinalExtent: -2}, Spec{}},
		{"unknown precision", Spec{Precision: "float16"}, Spec{}},
		{"unknown engine", Spec{Engine: "warp"}, Spec{}},
		{"unknown smooth mode", Spec{SmoothMode: "zigzag"}, Spec{}},
		{"settings kept", Spec{TTRatio: 3.5, Kappa: 4, Jumbles: 7, Seed: 10, Extent: 2, FinalExtent: 5, Adaptive: true,
			Precision: "32", Engine: "reference", SmoothMode: "grad"},
			Spec{Model: "F84", TTRatio: 3.5, Kappa: 4, Jumbles: 7, Seed: 11, Extent: 2, FinalExtent: 5, Adaptive: true,
				Precision: "float32", Engine: "reference", SmoothMode: "gradient"}},
		{"final extent follows extent", Spec{Extent: 3}, with(func(s *Spec) { s.Extent, s.FinalExtent = 3, 3 })},
	} {
		got, err := tc.in.Normalize()
		if tc.want.Model == "" {
			if err == nil {
				t.Errorf("%s: accepted as %+v", tc.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
		if again, err := got.Normalize(); err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%s: normalizing twice changed the spec: %+v, %v", tc.name, again, err)
		}
	}
}
