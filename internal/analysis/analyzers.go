package analysis

import (
	"fmt"
	"strings"
)

// All returns the full vavglint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detorder, Noglobalrand, Stepcontract, Wiretag, Hotpath, Scenarioseam, Shardseam, Detflow}
}

// ByName resolves a comma-separable analyzer name.
func ByName(name string) (*Analyzer, error) {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		if a.Name == name {
			return a, nil
		}
		names[i] = a.Name
	}
	return nil, fmt.Errorf("analysis: unknown analyzer %q (available: %s)", name, strings.Join(names, ", "))
}
