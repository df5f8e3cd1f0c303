// Remote scenario dispatch: the coordinator half of the horizontal
// scale-out layer (DESIGN.md §14), exposed on the facade for cxlbench
// -remote. Cells are sharded across a cxlserve replica fleet by canonical
// key and the merged dataset is byte-identical to local serial execution.
package cxlmem

import (
	"context"

	"cxlmem/internal/cluster"
	"cxlmem/internal/experiments"
	"cxlmem/internal/workloads"
)

// remoteCoordinator builds a client-side coordinator over the given replica
// addresses ("host:8375" and "http://host:8375" spellings both accepted).
func remoteCoordinator(peers []string) (*cluster.Coordinator, error) {
	normalized, err := cluster.NormalizeAddrs(peers)
	if err != nil {
		return nil, err
	}
	ring, err := cluster.NewRing("", normalized)
	if err != nil {
		return nil, err
	}
	return &cluster.Coordinator{Ring: ring}, nil
}

// RunRemoteScenarioMatrixDataset evaluates the full scenario cross product
// on a cxlserve replica fleet: each cell runs on the replica owning its
// canonical key, and the merged dataset is byte-identical to
// RunScenarioMatrixDataset computed locally.
func RunRemoteScenarioMatrixDataset(peers []string, cfg RunConfig) (*Dataset, error) {
	co, err := remoteCoordinator(peers)
	if err != nil {
		return nil, err
	}
	return co.ScenarioDataset(context.Background(), cfg.options(), "matrix-all",
		"full scenario matrix: workload x policy x size", experiments.AllMatrixScenarios())
}

// RunRemoteScenarioDataset evaluates one scenario spec on the replica that
// owns its canonical key, byte-identical to RunScenarioDataset.
func RunRemoteScenarioDataset(spec string, peers []string, cfg RunConfig) (*Dataset, error) {
	sc, err := workloads.ParseScenario(spec)
	if err != nil {
		return nil, err
	}
	co, err := remoteCoordinator(peers)
	if err != nil {
		return nil, err
	}
	return co.ScenarioResult(context.Background(), cfg.options(), sc)
}
