// Package serena is a Go implementation of the Serena service-enabled
// algebra and the PEMS (Pervasive Environment Management System) of
// Gripay, Laforest and Petit, "A Simple (yet Powerful) Algebra for
// Pervasive Environments", EDBT 2010.
//
// The implementation lives under internal/: see DESIGN.md for the system
// inventory, EXPERIMENTS.md for the paper's tables and figures reproduced
// as tests, benchmark/ for the benchmark, and examples/ for runnable
// programs. The root package holds no code.
package serena
