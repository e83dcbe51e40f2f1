//go:build !linux

package likelihood

// osYield is a no-op where the platform offers no portable thread yield;
// the poll loops still yield their P.
func osYield() {}
