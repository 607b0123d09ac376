package main

import (
	"io"
	"strings"
	"testing"
)

// TestWideFormatsAreErrors runs the command on formats that parse but
// whose codes do not fit the synthetic tensors' uint8 storage: the answer
// is an error naming the codec, where it used to be a panic.
func TestWideFormatsAreErrors(t *testing.T) {
	for _, f := range []string{"W9A9", "W8A9", "W9A8"} {
		err := run([]string{"-fmt", f, "-m", "64", "-k", "64", "-n", "8"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "too wide") {
			t.Errorf("-fmt %s: error %v, want one naming the too-wide codec", f, err)
		}
	}
}

// TestRunSmoke is the happy path: every design runs and verifies.
func TestRunSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-m", "64", "-k", "64", "-n", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), " OK ("); got != 6 {
		t.Errorf("%d of 6 designs verified:\n%s", got, out.String())
	}
}
