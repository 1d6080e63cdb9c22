package ipm

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"time"
)

// The XML profiling log is IPM's detailed output: the full hash table of
// every task, organised by region. ipm_parse (cmd/ipmparse) consumes it to
// regenerate the banner, produce HTML, or convert to the CUBE format.

// XMLLog is the document root.
type XMLLog struct {
	XMLName   xml.Name  `xml:"ipm_log"`
	Version   string    `xml:"version,attr"`
	Command   string    `xml:"command,attr"`
	NTasks    int       `xml:"ntasks,attr"`
	NHosts    int       `xml:"nhosts,attr"`
	Start     string    `xml:"start,attr,omitempty"`
	Stop      string    `xml:"stop,attr,omitempty"`
	Wallclock float64   `xml:"wallclock,attr"`
	Tasks     []XMLTask `xml:"task"`
}

// XMLTask is one rank's profile. The hashtable_* attributes surface the
// monitor's own fidelity (fill ratio, spilled signatures, probe steps),
// so ipm_parse can report post-mortem whether the statistics were
// collected at degraded hash-table fidelity; they are omitted when zero,
// keeping older logs parseable.
type XMLTask struct {
	Rank         int         `xml:"mpi_rank,attr"`
	Host         string      `xml:"host,attr"`
	Wallclock    float64     `xml:"wallclock,attr"`
	HashLoad     float64     `xml:"hashtable_load,attr,omitempty"`
	HashOverflow int         `xml:"hashtable_overflow,attr,omitempty"`
	HashProbes   uint64      `xml:"hashtable_probes,attr,omitempty"`
	Errors       int64       `xml:"error_total,attr,omitempty"`
	SubmitStall  float64     `xml:"submit_stall_total,attr,omitempty"`
	Energy       float64     `xml:"energy_total,attr,omitempty"` // joules
	Device       string      `xml:"device,attr,omitempty"`
	MonitorErrs  int64       `xml:"monitor_errors,attr,omitempty"`
	Status       string      `xml:"status,attr,omitempty"` // "lost" for a dead rank
	LostAt       float64     `xml:"lost_at,attr,omitempty"`
	LostReason   string      `xml:"lost_reason,attr,omitempty"`
	Regions      []XMLRegion `xml:"region"`
}

// XMLRegion groups hash table entries by user region.
type XMLRegion struct {
	Name  string    `xml:"name,attr"`
	Funcs []XMLFunc `xml:"func"`
}

// XMLFunc is one hash table entry. The submit_* attributes carry the
// driver command-queue accounting (submission count and summed
// enqueue→flush stall, seconds); they are omitted when zero so logs from
// runs without command queues stay byte-identical to older versions.
type XMLFunc struct {
	Name        string  `xml:"name,attr"`
	Bytes       int64   `xml:"bytes,attr"`
	Count       int64   `xml:"count,attr"`
	TTot        float64 `xml:"ttot,attr"`
	TMin        float64 `xml:"tmin,attr"`
	TMax        float64 `xml:"tmax,attr"`
	Errors      int64   `xml:"error_count,attr,omitempty"`
	SubmitN     int64   `xml:"submit_count,attr,omitempty"`
	SubmitStall float64 `xml:"submit_stall,attr,omitempty"`
	Energy      float64 `xml:"energy,attr,omitempty"` // joules
}

// globalRegionName is how the implicit whole-program region appears in the
// log, following IPM's convention.
const globalRegionName = "ipm_global"

func regionLabel(r string) string {
	if r == GlobalRegion {
		return globalRegionName
	}
	return r
}

func regionFromLabel(l string) string {
	if l == globalRegionName {
		return GlobalRegion
	}
	return l
}

// ToXML converts a job profile to its XML document form.
func ToXML(jp *JobProfile) *XMLLog {
	doc := &XMLLog{
		Version:   "2.0",
		Command:   jp.Command,
		NTasks:    jp.NTasks(),
		NHosts:    jp.Nodes,
		Start:     jp.Start,
		Stop:      jp.Stop,
		Wallclock: jp.Wallclock().Seconds(),
	}
	for _, r := range jp.Ranks {
		task := XMLTask{
			Rank: r.Rank, Host: r.Host, Wallclock: r.Wallclock.Seconds(),
			HashLoad: r.LoadFactor, HashOverflow: r.Overflow, HashProbes: r.Probes,
			Errors: r.Errors, SubmitStall: r.SubmitStall.Seconds(), MonitorErrs: r.MonitorErrors,
			Energy: energyToJoules(r.Energy), Device: r.Device,
		}
		if r.Lost {
			task.Status = "lost"
			task.LostAt = r.LostAt.Seconds()
			task.LostReason = r.LostReason
		}
		// Group entries by region, preserving the sorted entry order.
		regionIdx := make(map[string]int)
		for _, e := range r.Entries {
			label := regionLabel(e.Sig.Region)
			i, ok := regionIdx[label]
			if !ok {
				i = len(task.Regions)
				regionIdx[label] = i
				task.Regions = append(task.Regions, XMLRegion{Name: label})
			}
			task.Regions[i].Funcs = append(task.Regions[i].Funcs, XMLFunc{
				Name:        e.Sig.Name,
				Bytes:       e.Sig.Bytes,
				Count:       e.Stats.Count,
				TTot:        e.Stats.Total.Seconds(),
				TMin:        e.Stats.Min.Seconds(),
				TMax:        e.Stats.Max.Seconds(),
				Errors:      e.Stats.Errors,
				SubmitN:     e.Stats.Submits,
				SubmitStall: e.Stats.SubmitStall.Seconds(),
				Energy:      energyToJoules(e.Stats.Energy),
			})
		}
		doc.Tasks = append(doc.Tasks, task)
	}
	return doc
}

// WriteXML writes the job profile as an IPM XML log.
func WriteXML(w io.Writer, jp *JobProfile) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(ToXML(jp)); err != nil {
		return fmt.Errorf("ipm: encoding XML log: %w", err)
	}
	if err := enc.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

func secsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// energyToJoules / joulesToEnergy convert between the internal integer
// nanojoule representation and the joule-valued energy_* XML attributes,
// the exact counterparts of Seconds()/secsToDuration for durations.
func energyToJoules(nj int64) float64 { return float64(nj) / 1e9 }

func joulesToEnergy(j float64) int64 { return int64(math.Round(j * 1e9)) }
