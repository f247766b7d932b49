package whatif

import "github.com/stubby-mr/stubby/internal/mrsim"

// This file is the scheduling layer of the estimator: replaying a job's
// duration card against the workflow's shared map and reduce slot pools.
// The pool operations — their order and arguments — are the contract shared
// by the monolithic and incremental paths: as long as cards are identical
// and the pools start from identical states, the predicted start/end times
// are bit-for-bit identical.

// placer puts one job's tasks on the cluster's slots, none before jobReady,
// and returns the job's predicted end time.
type placer func(card *jobCard, jobID string, jobReady float64) float64

// nominalPools returns the cluster's map and reduce slot pools, all slots
// free at time zero, and the placer that schedules cards on them.
func (e *Estimator) nominalPools() (mapPool, redPool *mrsim.SlotPool, place placer) {
	mapPool = mrsim.NewSlotPool(e.Cluster.TotalMapSlots())
	redPool = mrsim.NewSlotPool(e.Cluster.TotalReduceSlots())
	return mapPool, redPool, func(card *jobCard, _ string, jobReady float64) float64 {
		return scheduleJob(card, jobReady, mapPool, redPool)
	}
}

// scheduleJob places the card's tasks on the pools and returns the job's
// predicted end time.
func scheduleJob(card *jobCard, jobReady float64, mapPool, redPool *mrsim.SlotPool) float64 {
	mapsDone := mapPool.ScheduleUniform(jobReady, card.avgMapDur, card.mapTasks-1)
	if _, e := mapPool.Schedule(jobReady, card.maxMapDur); e > mapsDone {
		mapsDone = e
	}
	end := mapsDone
	if card.reduceTasks > 0 {
		end = redPool.ScheduleUniform(mapsDone, card.avgRedDur, card.reduceTasks-1)
		if _, tend := redPool.Schedule(mapsDone, card.maxRedDur); tend > end {
			end = tend
		}
	}
	return end
}
