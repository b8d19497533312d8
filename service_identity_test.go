package ldp

import (
	"errors"
	"testing"
)

// A service serves its info on /healthz and in every /snapshot frame, so an
// info the collector does not aggregate under would have clients verify
// against a mechanism nobody runs. NewCollectorService refuses it; a partial
// info that only leaves fields undeclared still passes.
func TestCollectorServiceRefusesForeignIdentity(t *testing.T) {
	const n = 16
	oue, err := NewOUE(n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(oue, Histogram(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	rappor, err := OracleByName("RAPPOR", n, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	oue2, err := NewOUE(n, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	for name, info := range map[string]MechanismInfo{
		"RAPPOR": MechanismInfoOf(rappor),
		"ε = 2":  MechanismInfoOf(oue2),
		"domain": {Domain: 2 * n},
	} {
		if _, err := NewCollectorService(col, info); !errors.Is(err, errMechanismMismatch) {
			t.Errorf("%s info %+v: got %v, want a mechanism mismatch", name, info, err)
		}
	}
	for _, info := range []MechanismInfo{MechanismInfoOf(oue), {Domain: n}, {}} {
		if _, err := NewCollectorService(col, info); err != nil {
			t.Errorf("info %+v refused: %v", info, err)
		}
	}
}
