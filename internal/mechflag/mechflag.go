// Package mechflag resolves the mechanism-selection flags shared by the
// collector-facing commands (ldpserve, ldprouter, ldpquery): exactly one of
// an in-place oracle spec, a strategy wire file, or an oracle wire file.
// Keeping the resolution in one place guarantees a router or query client
// pointed at a shard's own flags aggregates and reconstructs under the
// shard's exact mechanism.
package mechflag

import (
	"errors"
	"os"
	"strings"

	ldp "repro"
)

// Build resolves the flag triple to the protocol's server side. mech names
// an oracle family built in place at (n, eps); stratPath/oraclePath load a
// persisted wire file. Exactly one selector must be set.
func Build(mech string, n int, eps float64, stratPath, oraclePath string) (ldp.Aggregator, error) {
	set := 0
	for _, s := range []string{mech, stratPath, oraclePath} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("exactly one of -mech, -strategy, -oracle must be given")
	}
	switch {
	case stratPath != "":
		f, err := os.Open(stratPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		s, err := ldp.LoadStrategy(f)
		if err != nil {
			return nil, err
		}
		return ldp.NewAggregator(s)
	case oraclePath != "":
		f, err := os.Open(oraclePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		o, err := ldp.LoadOracle(f)
		if err != nil {
			return nil, err
		}
		return o, nil
	default:
		o, err := ldp.OracleByName(strings.ToUpper(mech), n, eps)
		if err != nil {
			return nil, err
		}
		return o, nil
	}
}
