package multilevel

import "testing"

var trackSink []byte

// TestPhaseTrackAllocs checks that each phase timer routes its allocations
// into its own counter. A 64 KiB allocation is a large object, which the
// runtime counts the moment it is made, so the check does not depend on
// span or pool state the way the small allocations of a real descent do.
func TestPhaseTrackAllocs(t *testing.T) {
	var st PhaseStats
	for phase := range phaseLabels {
		st.track(phase, func() { trackSink = make([]byte, 64<<10) })
	}
	for phase, n := range []int64{st.CoarsenAllocs, st.InitAllocs, st.RefineAllocs, st.RefineParallelAllocs, st.RefineLocalizedAllocs} {
		if n < 1 {
			t.Errorf("phase %s counted %d allocations, want >= 1", phaseLabels[phase], n)
		}
	}
}
