package algebra

// RandDB and RandQuery expose the random-plan generators of
// crosscheck_test.go to the external test package, whose tests import
// packages (internal/core) that themselves import algebra.
var (
	RandDB    = randDB
	RandQuery = randQuery
)
