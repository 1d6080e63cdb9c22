package gpusim

import (
	"errors"
	"time"

	"ipmgo/internal/des"
	"ipmgo/internal/telemetry"
)

// DevEvent models a CUDA event: a marker inserted into a stream whose
// completion timestamp on the device timeline can be queried from the
// host. This is the mechanism IPM uses to recover GPU-side kernel
// durations (paper Section III-B).
type DevEvent struct {
	dev *Device
	op  Ref // zero until recorded
}

// ErrEventNotRecorded is returned when querying an event that has not been
// recorded into a stream.
var ErrEventNotRecorded = errors.New("gpusim: event not recorded")

// ErrEventNotReady is returned by Elapsed when either event has not yet
// completed on the device.
var ErrEventNotReady = errors.New("gpusim: event not ready")

// NewEvent creates an unrecorded event.
func (d *Device) NewEvent() *DevEvent { return &DevEvent{dev: d} }

// Record inserts the event into the stream. The event completes when all
// prior work on the stream has completed. Re-recording reuses the event
// with a fresh completion.
func (ev *DevEvent) Record(s *Stream) {
	ready := ev.dev.earliest(s)
	op := ev.dev.enqueue(s, OpEventRecord, "eventRecord", ready, ev.dev.spec.EventRecordCost, nil)
	ev.dev.recordStreamSpan(s, telemetry.ClassGPU, op, 0)
	ev.op = op.Ref()
}

func (ev *DevEvent) recorded() bool { return ev.op.op != nil }

// Query reports whether the event has completed on the device (the
// cudaEventQuery success condition). An unrecorded event reports false.
func (ev *DevEvent) Query() bool {
	return ev.recorded() && ev.op.Complete()
}

// Done returns the completion signal while the event is pending, or nil
// if it has not been recorded or has already completed.
func (ev *DevEvent) Done() *des.Signal {
	return ev.op.Done()
}

// Timestamp returns the device-timeline completion time of the event.
func (ev *DevEvent) Timestamp() (time.Duration, error) {
	if !ev.recorded() {
		return 0, ErrEventNotRecorded
	}
	if !ev.op.Complete() {
		return 0, ErrEventNotReady
	}
	return ev.op.End, nil
}

// Elapsed returns stop-start on the device timeline, like
// cudaEventElapsedTime. Both events must have completed.
func (ev *DevEvent) Elapsed(stop *DevEvent) (time.Duration, error) {
	a, err := ev.Timestamp()
	if err != nil {
		return 0, err
	}
	b, err := stop.Timestamp()
	if err != nil {
		return 0, err
	}
	return b - a, nil
}
