package service

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec drives the POST /v1/runs parsing surface with arbitrary
// bytes, decoded exactly as the server decodes a request body. For every
// spec that decodes: ValidateSpec never panics, Normalize is idempotent,
// and the dedup and transfer-learning identities (Key, FamilyKey) are the
// same for the raw and the normalized spec.
//
// Run the full fuzzer with:
//
//	go test ./internal/service -run xxx -fuzz=FuzzJobSpec -fuzztime=30s
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"benchmark":"LV"}`,
		`{"benchmark":" lv ","algorithm":"CEAL","objective":"Comp","budget":20,"pool":200,"seed":1}`,
		`{"benchmark":"HS","algorithm":"rs","objective":"exec","budget":-1,"pool":-3,"workers":-2}`,
		`{"benchmark":"GP","algorithm":"geist","objective":"energy","warm_start":true}`,
		`{"benchmark":"LV","mode":"Continuous","drift":"step","probes":12,"seed":7}`,
		`{"benchmark":"LV","mode":"continuous","drift":"ramp","dedup":true,"warm_start":true}`,
		`{"benchmark":"LV","mode":"tune","drift":"periodic","probes":5,"dedup":true}`,
		`{"benchmark":"LV","mode":"sideways"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		var s JobSpec
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return
		}
		_ = ValidateSpec(s)

		n := s.Normalize()
		if nn := n.Normalize(); nn != n {
			t.Fatalf("Normalize not idempotent:\n once  %+v\n twice %+v", n, nn)
		}
		if s.Key() != n.Key() {
			t.Fatalf("Key differs after Normalize: %q vs %q", s.Key(), n.Key())
		}
		if s.FamilyKey() != n.FamilyKey() {
			t.Fatalf("FamilyKey differs after Normalize: %q vs %q", s.FamilyKey(), n.FamilyKey())
		}
	})
}
