package graphio

import (
	"encoding/json"
	"fmt"

	"mlbs/internal/reliability"
)

// ReliabilityReportWire is the wire form of a reliability.Report — the
// canonical schema both `mlb-validate` and the plan service's
// /v1/validate endpoint emit. Every field of the report is deterministic
// in (instance, schedule, loss model, trials), so the encoding is stable
// across runs and machines and can be cached by content address.
type ReliabilityReportWire struct {
	Version int                `json:"version"`
	Report  reliability.Report `json:"report"`
}

// NewReliabilityReportWire projects a Monte-Carlo reliability report onto
// its wire form.
func NewReliabilityReportWire(rep *reliability.Report) (ReliabilityReportWire, error) {
	if rep == nil {
		return ReliabilityReportWire{}, fmt.Errorf("graphio: nil reliability report")
	}
	return ReliabilityReportWire{Version: currentVersion, Report: *rep}, nil
}

// EncodeReliabilityReport serializes a Monte-Carlo reliability report.
func EncodeReliabilityReport(rep *reliability.Report) ([]byte, error) {
	return marshalWire(NewReliabilityReportWire(rep))
}

// DecodeReliabilityReport rebuilds a report from EncodeReliabilityReport
// output.
func DecodeReliabilityReport(data []byte) (*reliability.Report, error) {
	var st ReliabilityReportWire
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	if st.Version != currentVersion {
		return nil, fmt.Errorf("graphio: unsupported version %d", st.Version)
	}
	if st.Report.Trials < 0 || len(st.Report.NodeCovered) == 0 && st.Report.Trials > 0 {
		return nil, fmt.Errorf("graphio: malformed reliability report")
	}
	return &st.Report, nil
}
