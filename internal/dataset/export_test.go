package dataset

// SameExecution exposes the oracle comparison to the external tests.
var SameExecution = sameExecution
