package ipmparse

import (
	"bytes"
	"encoding/xml"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipmgo/internal/ipm"
)

// Native fuzz targets for the two parser entry points. The contract
// under test: the strict loader may reject anything but must never
// panic or accept what encoding/xml's unmarshal into ipm.XMLLog
// rejects, and the tolerant loader — which the profile store feeds with
// arbitrary network input — must never panic AND must always hand back
// a profile the downstream consumers (banner, XML re-encode) can
// process without panicking. `make fuzz` runs a short pass as part of
// `make verify`; longer runs just raise -fuzztime.

// maxFuzzInput caps the document size under fuzz. The interesting bug
// surface is structural (torn tags, bad attributes, interleaved
// regions), all reachable well under this; without a cap the mutator
// drifts toward documents with thousands of bare <task> elements whose
// O(ranks × funcs) banner render drops the exec rate to single digits.
const maxFuzzInput = 16 << 10

// seedCorpus feeds every checked-in fixture plus a couple of
// hand-picked structural edge cases.
func seedCorpus(f *testing.F) {
	f.Helper()
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	for _, fx := range fixtures {
		data, err := os.ReadFile(fx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`<?xml version="1.0"?><ipm_log version="2.0" command="./x" ntasks="1" nhosts="1" wallclock="1.0"><task mpi_rank="0" host="h" wallclock="1.0"><region name="ipm_global"><func name="MPI_Barrier" bytes="0" count="1" ttot="0.5" tmin="0.5" tmax="0.5"></func></region></task></ipm_log>`))
	f.Add([]byte(`<ipm_log ntasks="99999999"><task mpi_rank="-5" wallclock="nan">`))
	f.Add([]byte(`<ipm_log><task><region><func name="a" count="9223372036854775807" ttot="1e308"/></region></task></ipm_log>`))
	f.Add([]byte("<ipm_log>\xff\xfe<task"))
	// Energy-attributed profiles: a task-level total with a device stamp,
	// an entry-level fallback, and hostile energy values.
	f.Add([]byte(`<ipm_log ntasks="1"><task mpi_rank="0" energy_total="76.5" device="Tesla C2050"><region><func name="@CUDA_EXEC_STRM00" count="3" ttot="0.4" energy="76.5"/></region></task></ipm_log>`))
	f.Add([]byte(`<ipm_log ntasks="1"><task mpi_rank="0" device="A100-SXM4-40GB"><region><func name="cudaMemcpy(H2D)" count="2" ttot="0.1" energy="1.25"/><func name="square" count="2" ttot="0.2" energy="8.5"/></region></task></ipm_log>`))
	f.Add([]byte(`<ipm_log ntasks="1"><task energy_total="-1e308" device="&#0;"><region><func name="k" energy="nan"/></region></task></ipm_log>`))
}

func FuzzParse(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			t.Skip("oversized input")
		}
		jp, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if jp == nil {
			t.Fatal("strict Load returned nil profile and nil error")
		}
		// The strict reader accepts nothing encoding/xml's own strict
		// unmarshal of the log rejects.
		var doc ipm.XMLLog
		if err := xml.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
			t.Fatalf("strict Load accepted a log the XMLLog unmarshal rejects: %v", err)
		}
		// Whatever the strict decoder accepted must survive the full
		// downstream pipeline.
		if err := WriteBanner(io.Discard, jp, true); err != nil {
			t.Fatalf("banner on accepted profile: %v", err)
		}
		if err := ipm.WriteXML(io.Discard, jp); err != nil {
			t.Fatalf("re-encode of accepted profile: %v", err)
		}
	})
}

func FuzzTolerant(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			t.Skip("oversized input")
		}
		jp, rep, err := LoadTolerant(bytes.NewReader(data))
		if err != nil {
			// Total rejection is allowed only when there is no ipm_log
			// root at all; it must never coexist with a profile.
			if jp != nil {
				t.Fatal("tolerant load returned both a profile and an error")
			}
			return
		}
		if jp == nil || rep == nil {
			t.Fatal("tolerant load returned nil profile or report without error")
		}
		// Salvaged profiles flow into the profile store and ipm_parse:
		// every downstream consumer must cope with whatever was recovered.
		if err := WriteBanner(io.Discard, jp, true); err != nil {
			t.Fatalf("banner on salvaged profile: %v", err)
		}
		if err := WriteHTML(io.Discard, jp); err != nil {
			t.Fatalf("HTML on salvaged profile: %v", err)
		}
		if err := ipm.WriteXML(io.Discard, jp); err != nil {
			t.Fatalf("re-encode of salvaged profile: %v", err)
		}
		for _, w := range rep.Warnings {
			if strings.TrimSpace(w) == "" {
				t.Fatal("empty warning recorded")
			}
		}
	})
}
