// Package b gives the multichecker several findings across lines for its
// ordering test. (The expectations live in multichecker_test.go, not in
// want comments — this fixture tests the driver, not an analyzer.)
package b

import "time"

func first() time.Time {
	return time.Now()
}

func second() time.Time {
	return time.Now()
}

func third() (time.Time, time.Time) {
	return time.Now(), time.Now()
}
