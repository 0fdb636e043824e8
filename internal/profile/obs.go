package profile

import "vibguard/internal/obs"

// Profile-layer instrumentation, in the process-wide registry next to the
// serve and pipeline metrics (DESIGN.md section 10). The cache counters
// split known-user fast-path hits from recalibrating misses; the
// calibration gauge tracks the most recently computed personalized
// threshold offset, so an operator can see per-user adaptation moving
// (and confirm the clamp is holding it inside ±DefaultMaxOffset).
var (
	metCacheHits      = obs.Default().Counter("profile.cache.hits")
	metCacheMisses    = obs.Default().Counter("profile.cache.misses")
	metCacheEvictions = obs.Default().Counter("profile.cache.evictions")
	gaugeCalibOffset  = obs.Default().Gauge("calibration.offset")
)

// RecordOffset publishes a freshly computed calibration offset to the
// calibration.offset gauge; the serve worker calls it after Observe.
func RecordOffset(offset float64) { gaugeCalibOffset.Set(offset) }
