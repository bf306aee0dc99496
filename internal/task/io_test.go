package task

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
)

func TestSetJSONRoundTrip(t *testing.T) {
	s, err := Generate(platform.Default(), DefaultGenConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform.NumCPUs() != 5 || got.Platform.NumGPUs() != 1 {
		t.Fatalf("platform shape lost: %v", got.Platform)
	}
	for i := range s.Types {
		if !reflect.DeepEqual(s.Types[i], got.Types[i]) {
			t.Fatalf("type %d changed in round trip:\n%+v\n%+v", i, s.Types[i], got.Types[i])
		}
	}
}

// TestSetWriteRefusesUnrepresentableLayout: the file header stores only
// cpus/gpus and Read rebuilds CPUs first, so a set generated on a
// GPU-first or interleaved platform must be refused by Write rather than
// read back with its columns bound to other resources.
func TestSetWriteRefusesUnrepresentableLayout(t *testing.T) {
	for _, spec := range []string{"1g2c", "2c1g2c"} {
		plat, err := platform.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Generate(plat, DefaultGenConfig(), rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); !errors.Is(err, ErrPlatformLayout) {
			t.Fatalf("%s: Write error %v, want ErrPlatformLayout", spec, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: refused write still emitted %d bytes", spec, buf.Len())
		}
	}
}

func TestSetJSONNotExecutableRoundTrip(t *testing.T) {
	s := &Set{
		Platform: platform.New(1, 1),
		Types: []*Type{{
			ID:     0,
			WCET:   []float64{4, NotExecutable},
			Energy: []float64{2, NotExecutable},
		}},
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "null") {
		t.Fatal("NotExecutable not encoded as null")
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Types[0].WCET[1] != NotExecutable || got.Types[0].Energy[1] != NotExecutable {
		t.Fatal("NotExecutable lost in round trip")
	}
}

func TestSetFileRoundTrip(t *testing.T) {
	s := Motivational()
	path := filepath.Join(t.TempDir(), "set.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Types[0].WCET[2] != 5 {
		t.Fatalf("file round trip wrong: %+v", got.Types)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"cpus":0,"gpus":0,"types":[]}`,
		`{"cpus":1,"gpus":0,"types":[]}`, // empty set fails Validate
		`{"cpus":1,"gpus":0,"types":[{"id":0,"wcet":[null],"energy":[null]}]}`,
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: Read accepted %q", i, c)
		}
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("ReadFile accepted missing file")
	}
}

func TestWriteRejectsInvalidSet(t *testing.T) {
	s := &Set{Platform: platform.Default()}
	var buf bytes.Buffer
	if err := s.Write(&buf); err == nil {
		t.Fatal("Write accepted empty set")
	}
}
