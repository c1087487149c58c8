package uplink

import "ltephy/internal/phy/workspace"

// Stage is the uniform kernel interface the receiver chain is built from.
// A stage exposes its task-level parallelism through Tasks: indices
// [0, Tasks(j)) are independent and may run concurrently on different
// workers; stage boundaries are barriers the driver enforces (the
// work-stealing pool in internal/sched, or a trivial loop in the serial
// reference).
//
// Run draws all transient scratch from ws, the *executing* worker's arena
// (nil falls back to heap allocation) — a stolen task uses the thief's
// arena, never the spawner's. Run must bracket its arena use with
// Mark/Release so that scratch is fully returned when it completes;
// job-lifetime buffers live in the UserJob, not the stage.
//
// Stage implementations are stateless singletons registered per
// ChanEstType / CombinerType; swapping an estimator or combiner is a
// registry lookup, not a switch inside the kernel.
type Stage interface {
	Name() string
	Tasks(j *UserJob) int
	Run(ws *workspace.Arena, j *UserJob, taskIdx int)
}

// BatchStage is implemented by stages whose tasks are grid-shaped enough
// to profit from running a contiguous range [from, to) in one call: the
// stage gathers the range's inputs into contiguous scratch and issues
// batched FFT-engine transforms (one Mark/Release, one plan, shared
// scratch) instead of per-task calls. Drivers that own a whole stage —
// the serial reference — use it; per-task Run remains the unit the
// work-stealing pool spawns, and both paths perform identical per-vector
// arithmetic, so results stay bit-exact between them.
type BatchStage interface {
	Stage
	RunBatch(ws *workspace.Arena, j *UserJob, from, to int)
}

// chanEstStages maps each channel-estimator type to its stage singleton.
var chanEstStages = map[ChanEstType]Stage{
	ChanEstWindowed: windowedChanEst{},
	ChanEstLS:       lsChanEst{},
}

// combinerStages maps each combiner type to its weight-computation stage.
var combinerStages = map[CombinerType]Stage{
	CombinerMMSE: mmseWeights{},
	CombinerZF:   zfWeights{},
	CombinerMRC:  mrcWeights{},
	CombinerIRC:  ircWeights{},
}

// Stages returns the job's four-stage pipeline in execution order, with
// the channel estimator and combiner resolved through the registries. The
// array is fixed-size so drivers iterate it without allocating.
func (j *UserJob) Stages() [4]Stage {
	return [4]Stage{
		chanEstStages[j.Cfg.ChanEst],
		combinerStages[j.Cfg.Combiner],
		dataStage{},
		finishStage{},
	}
}

// windowedChanEst is the paper's Fig. 3 estimation chain: matched filter,
// IFFT, time-domain windowing around the layer's cyclic shift, FFT back.
type windowedChanEst struct{}

func (windowedChanEst) Name() string         { return "chanest-windowed" }
func (windowedChanEst) Tasks(j *UserJob) int { return j.NumChanEstTasks() }
func (windowedChanEst) Run(ws *workspace.Arena, j *UserJob, i int) {
	j.chanEstTask(ws, i, false)
}
func (windowedChanEst) RunBatch(ws *workspace.Arena, j *UserJob, from, to int) {
	j.chanEstBatch(ws, from, to, false)
}

// lsChanEst is raw least squares: the matched filter alone, with no
// denoising or layer separation.
type lsChanEst struct{}

func (lsChanEst) Name() string         { return "chanest-ls" }
func (lsChanEst) Tasks(j *UserJob) int { return j.NumChanEstTasks() }
func (lsChanEst) Run(ws *workspace.Arena, j *UserJob, i int) {
	j.chanEstTask(ws, i, true)
}

// mmseWeights solves W = (H^H H + nv I)^{-1} H^H per subcarrier.
type mmseWeights struct{}

func (mmseWeights) Name() string         { return "weights-mmse" }
func (mmseWeights) Tasks(j *UserJob) int { return 1 }
func (mmseWeights) Run(_ *workspace.Arena, j *UserJob, _ int) {
	j.resolveNoiseAndCFO()
	j.computeLinearWeights(j.nv, false)
}

// zfWeights is zero forcing: the same solver with a vanishing diagonal
// term that only guards numerical singularity.
type zfWeights struct{}

func (zfWeights) Name() string         { return "weights-zf" }
func (zfWeights) Tasks(j *UserJob) int { return 1 }
func (zfWeights) Run(_ *workspace.Arena, j *UserJob, _ int) {
	j.resolveNoiseAndCFO()
	j.computeLinearWeights(1e-9, false)
}

// mrcWeights is the per-layer matched filter w_l = h_l^H / (|h_l|^2 + nv).
type mrcWeights struct{}

func (mrcWeights) Name() string         { return "weights-mrc" }
func (mrcWeights) Tasks(j *UserJob) int { return 1 }
func (mrcWeights) Run(_ *workspace.Arena, j *UserJob, _ int) {
	j.resolveNoiseAndCFO()
	j.computeLinearWeights(j.nv, true)
}

// ircWeights whitens the combiner with the estimated interference
// covariance (irc.go).
type ircWeights struct{}

func (ircWeights) Name() string         { return "weights-irc" }
func (ircWeights) Tasks(j *UserJob) int { return 1 }
func (ircWeights) Run(_ *workspace.Arena, j *UserJob, _ int) {
	j.resolveNoiseAndCFO()
	j.computeIRCWeights()
}

// dataStage combines one (slot, symbol, layer) across antennas and
// despreads it back to the time domain.
type dataStage struct{}

func (dataStage) Name() string         { return "combine-despread" }
func (dataStage) Tasks(j *UserJob) int { return j.NumDataTasks() }
func (dataStage) Run(ws *workspace.Arena, j *UserJob, i int) {
	j.dataTask(ws, i)
}
func (dataStage) RunBatch(ws *workspace.Arena, j *UserJob, from, to int) {
	j.dataBatch(ws, from, to)
}

// finishStage is the serial per-user backend: deinterleave, demap,
// descramble, decode, CRC. The result lands in the job (Result()).
type finishStage struct{}

func (finishStage) Name() string         { return "backend" }
func (finishStage) Tasks(j *UserJob) int { return 1 }
func (finishStage) Run(ws *workspace.Arena, j *UserJob, _ int) {
	j.finish(ws)
}
