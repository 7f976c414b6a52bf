package health

// Pressure carries nothing and nothing reads it. It exists only because
// benchmark/rig.go still builds one for core.Deps and gateway.Config;
// delete it at the next change to the benchmark.
type Pressure struct{}

// NewPressure returns an empty Pressure; threshold is ignored. It exists
// only for benchmark/rig.go.
func NewPressure(threshold int) *Pressure { return &Pressure{} }
