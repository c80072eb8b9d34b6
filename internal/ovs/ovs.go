// Package ovs implements the constraint pre-processing step of §5.1: "we
// pre-process the resulting constraint files using a variant of Offline
// Variable Substitution [Rountev and Chandra 23], which reduces the number
// of constraints by 60-77%".
//
// Our variant is a hash-based value-numbering over the offline constraint
// graph: variables that provably have identical points-to sets receive the
// same pointer-equivalence label and are unified before solving. The
// labeling is conservative:
//
//   - ref nodes (unknown dereference results), address-taken variables
//     (which can gain edges from store constraints at solve time), and
//     function return/parameter slots (targets of offset constraints) are
//     "indirect" and get fresh, unshareable labels;
//   - other nodes take the union of their predecessors' labels plus one
//     location label per address-of constraint; an empty union is the
//     distinguished label 0 (provably empty points-to set), a singleton
//     union reuses its single label (collapsing copy chains), and larger
//     unions are hash-consed so equal sets share one label.
//
// This is internal/hvn's value-numbering engine without HVN's implicit
// ref(b) → ref(a) edges (hvn.Pass{}). Constraints are then rewritten
// through the unification map; constraints whose source (or dereferenced
// variable) has label 0 are deleted, as are duplicates and self-copies.
// The solver applies the returned PreUnions before solving so that
// queries on any original variable keep working.
package ovs

import (
	"antgrass/internal/constraint"
	"antgrass/internal/hvn"
)

// Result is the outcome of the substitution pass, the value-numbering
// engine's result.
type Result = hvn.Result

// Reduce runs the substitution on p. p is not modified.
func Reduce(p *constraint.Program) *Result {
	return hvn.Run(p, hvn.Pass{})
}
