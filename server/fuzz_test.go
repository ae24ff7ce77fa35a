package server

import (
	"bytes"
	"strings"
	"testing"

	"bear"
)

// FuzzSniffLoad throws arbitrary upload bodies at the format sniffer and
// the parsers behind it: no input may panic, and whatever parses must be
// a usable graph.
func FuzzSniffLoad(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("0 1 2.5\n# comment\n3 4\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 1\n"))
	f.Add([]byte("%%matrixmarket garbage"))
	f.Add([]byte("not numbers at all"))
	f.Add([]byte("0 1\n\xff\xfe binary junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := sniffLoad(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g == nil {
			t.Fatal("sniffLoad returned nil graph with nil error")
		}
		_ = g.N()
	})
}

// FuzzReadSnapshot feeds arbitrary bytes to the registry restorer; corrupt
// input must error out without panicking or registering partial state.
func FuzzReadSnapshot(f *testing.F) {
	s := New()
	g, err := sniffLoad(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Add("g", g, bear.Options{}); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("BEARSV01 junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := New()
		if err := fresh.ReadSnapshot(bytes.NewReader(data)); err != nil {
			if len(fresh.graphs) != 0 {
				t.Fatal("failed restore left graphs registered")
			}
		}
	})
}

// FuzzCandidatesRequest throws arbitrary bodies at the seed-list parser
// behind /candidates and /batch: no input may panic, and whatever
// validates must come back normalized — seeds in range, K and Top in
// [1, n].
func FuzzCandidatesRequest(f *testing.F) {
	f.Add([]byte(`{"seeds":[0,1,2],"k":5}`))
	f.Add([]byte(`{"seeds":[0]}`))
	f.Add([]byte(`{"seeds":[],"k":0}`))
	f.Add([]byte(`{"seeds":[-1],"k":-7}`))
	f.Add([]byte(`{"seeds":[9999999999999999999]}`))
	f.Add([]byte(`{"k":3}`))
	f.Add([]byte(`{"seeds":"zero"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte("\xff\xfe{}"))
	f.Add([]byte(`{"seeds":[3,3],"top":500}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 100
		req, err := parseSeedList(bytes.NewReader(data), n)
		if err != nil {
			return
		}
		if len(req.Seeds) == 0 || len(req.Seeds) > maxBatchSeeds {
			t.Fatalf("validated request has %d seeds", len(req.Seeds))
		}
		for _, s := range req.Seeds {
			if s < 0 || s >= n {
				t.Fatalf("validated request kept out-of-range seed %d", s)
			}
		}
		if req.K <= 0 || req.K > n || req.Top <= 0 || req.Top > n {
			t.Fatalf("validated request has K=%d Top=%d outside [1,%d]", req.K, req.Top, n)
		}
	})
}
