package deadexport_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/deadexport"
)

func TestDeadexport(t *testing.T) {
	analysistest.Run(t, deadexport.Analyzer, "deadexport")
}
