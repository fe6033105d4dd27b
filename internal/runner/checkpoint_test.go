package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestResumeCheckpoint: a missing file is an empty checkpoint, and a
// record cut off mid-write is dropped from both the resume set and the
// file.
func TestResumeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")

	cp, err := ResumeCheckpoint(path)
	if err != nil || cp != nil {
		t.Fatalf("missing checkpoint: %v, %v", cp, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint was created: %v", err)
	}

	var buf bytes.Buffer
	if _, err := Execute(context.Background(), tinyCampaign(), ExecOptions{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-20]
	if err := os.WriteFile(path, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err = ResumeCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp) != 7 {
		t.Fatalf("checkpoint entries = %d, want 7", len(cp))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := trunc[:bytes.LastIndexByte(trunc, '\n')+1]; !bytes.Equal(got, want) {
		t.Fatalf("torn record left in the file:\n%s", got)
	}
}

// TestResumeCheckpointTornTail covers each shape of tail a crash can
// leave — an unterminated record, a NUL-filled tail, a malformed final
// line — and interior garbage, which is an error that leaves the file
// alone.
func TestResumeCheckpointTornTail(t *testing.T) {
	whole := `{"key":"a"}` + "\n"
	for _, tc := range []struct {
		name, in, want string
		err            bool
	}{
		{name: "intact", in: whole, want: whole},
		{name: "unterminated", in: whole + `{"key":"b","trunc`, want: whole},
		{name: "unterminated valid record", in: whole + `{"key":"b"}`, want: whole},
		{name: "nul tail", in: whole + "\x00\x00\x00\x00", want: whole},
		{name: "malformed final line", in: whole + "\x00\x00\n\n", want: whole},
		{name: "interior garbage", in: whole + "not json\n" + `{"key":"b"}` + "\n", err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "r.jsonl")
			if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
				t.Fatal(err)
			}
			cp, err := ResumeCheckpoint(path)
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if tc.err {
				if err == nil {
					t.Fatal("interior garbage accepted")
				}
				if string(b) != tc.in {
					t.Fatalf("rejected file modified: %q", b)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.want {
				t.Fatalf("repaired file = %q, want %q", b, tc.want)
			}
			if len(cp) != 1 || cp["a"].Key != "a" {
				t.Fatalf("resume set = %v, want only a", cp)
			}
			// Resuming a repaired file is a no-op.
			if _, err := ResumeCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			if b, _ := os.ReadFile(path); string(b) != tc.want {
				t.Fatalf("second resume modified the file: %q", b)
			}
		})
	}
}

// FuzzResumeCheckpoint feeds arbitrary file contents to
// ResumeCheckpoint and requires that:
//
//   - no input panics;
//   - an input is rejected, with an error and the file untouched,
//     exactly when a malformed complete line precedes a record;
//   - otherwise the file is cut to a prefix that is empty or ends in
//     '\n', the resume set holds every complete record, and only the
//     torn tail and a malformed final line are dropped;
//   - a second call changes nothing and returns the same set;
//   - a record appended afterwards is read back by the next resume.
//
// Plain go test replays the seeds below.
//
//	go test -run '^$' -fuzz FuzzResumeCheckpoint -fuzztime 15s ./internal/runner
func FuzzResumeCheckpoint(f *testing.F) {
	rec := `{"key":"a","seed":7,"nodes":50}` + "\n"
	f.Add([]byte(""))
	f.Add([]byte(rec + `{"key":"b","se`))
	f.Add([]byte(rec + "garbage\n" + rec))
	f.Add([]byte(rec + strings.Repeat("\x00", 64)))
	f.Add([]byte(rec + "\r\n\n" + `{"key":"b"}` + "\r\n"))
	f.Add([]byte(rec + "{\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle walks the complete lines: blank ones are skipped,
		// the first malformed one must be the last non-blank one, and
		// the file keeps everything before it.
		want := map[string]Result{}
		keep, bad, wantErr := 0, false, false
		for _, ln := range bytes.SplitAfter(data, []byte("\n")) {
			if !bytes.HasSuffix(ln, []byte("\n")) {
				break
			}
			text := bytes.TrimSuffix(bytes.TrimSuffix(ln, []byte("\n")), []byte("\r"))
			if len(text) == 0 {
				if !bad {
					keep += len(ln)
				}
				continue
			}
			if bad {
				wantErr = true
				break
			}
			var r Result
			if json.Unmarshal(text, &r) != nil {
				bad = true
				continue
			}
			want[r.Key] = r
			keep += len(ln)
		}

		path := filepath.Join(t.TempDir(), "results.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ResumeCheckpoint(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if wantErr {
			if err == nil {
				t.Fatalf("interior garbage accepted: %q", data)
			}
			if !bytes.Equal(after, data) {
				t.Fatalf("rejected file modified: %q -> %q", data, after)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q rejected: %v", data, err)
		}
		if !bytes.Equal(after, data[:keep]) {
			t.Fatalf("%q repaired to %q, want %q", data, after, data[:keep])
		}
		if len(after) > 0 && after[len(after)-1] != '\n' {
			t.Fatalf("repaired file %q does not end in a newline", after)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: resume set %v, want %v", data, got, want)
		}

		again, err := ResumeCheckpoint(path)
		if err != nil {
			t.Fatalf("second resume: %v", err)
		}
		if b, _ := os.ReadFile(path); !bytes.Equal(b, after) {
			t.Fatalf("second resume modified %q to %q", after, b)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("second resume set %v, want %v", again, got)
		}

		appended := Result{Key: "appended"}
		fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		werr := WriteResult(fh, appended)
		if cerr := fh.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			t.Fatal(werr)
		}
		grown, err := ResumeCheckpoint(path)
		if err != nil {
			t.Fatalf("resume after append: %v", err)
		}
		want = maps.Clone(got)
		want[appended.Key] = appended
		if !reflect.DeepEqual(grown, want) {
			t.Fatalf("resume after append = %v, want %v", grown, want)
		}
	})
}
