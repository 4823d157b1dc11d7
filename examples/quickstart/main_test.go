package main

import (
	"bytes"
	"os"
	"runtime"
	"testing"
)

// TestTranscript pins the quickstart's full output — trained model size,
// vanilla samples, and each guided record with its masked-step and
// solver-check counts — against testdata/transcript.txt. Any change to
// training, the decode forward or the oracle that moves a decode trajectory
// shows up here. The kernel's rounding is pinned on amd64 only, so other
// GOARCHes skip.
func TestTranscript(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("transcript is pinned on amd64, not %s", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("quickstart output differs from testdata/transcript.txt:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
