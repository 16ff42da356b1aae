package upidb

import (
	"errors"

	"upidb/internal/fracture"
	"upidb/internal/planner"
	"upidb/internal/upi"
)

// Typed sentinel errors returned by the query API. Every layer of the
// engine returns (or wraps) these same values, so errors.Is works on
// any error that crosses the facade regardless of where it originated.
var (
	// ErrUnknownAttr reports a query on an attribute the table has no
	// index for — neither the primary clustered attribute nor any
	// secondary-indexed one.
	ErrUnknownAttr = upi.ErrUnknownAttr

	// ErrNoStats reports a forced planned query (WithPlanner or
	// WithExplain) on an attribute without seeded statistics: the
	// table was reopened and
	// has not merged yet, or a BuildStats subset dropped the
	// attribute. Automatic routing never returns it — Run falls back
	// to heuristic routing instead.
	ErrNoStats = planner.ErrNoStats

	// ErrCanceled reports a query stopped by its context, or refused
	// by deadline-aware admission. For a context stop, returned errors
	// wrap both ErrCanceled and the context's own error, so
	// errors.Is(err, context.Canceled) (or context.DeadlineExceeded)
	// also matches; an admission refusal (remaining deadline below the
	// plan's modeled cost) wraps ErrCanceled alone, since the deadline
	// had not yet expired. A query that fails either way has charged
	// no further modeled I/O and holds no partition pins.
	ErrCanceled = upi.ErrCanceled

	// ErrClosed reports an operation on a table after Table.Close or
	// DB.Close, including creating or opening tables on a closed DB.
	ErrClosed = fracture.ErrClosed

	// ErrInvalidShards reports a WithShards option with n < 1. A table
	// always has at least one shard; WithShards(1) is the unsharded
	// engine.
	ErrInvalidShards = errors.New("upidb: WithShards requires at least 1 shard")

	// ErrStreamConsumed reports a Results or SpatialResults handle
	// consumed twice. A handle executes once and keeps no rows: after
	// any consumption — a full or abandoned All/Rows drain, Collect, or
	// Len/Err/Info on an unconsumed handle — a second All or Rows
	// yields this error instead of replaying or silently resuming
	// mid-stream, and Collect returns nil. After an abandoned drain Err
	// returns it too. Run the query again for a fresh stream.
	ErrStreamConsumed = errors.New("upidb: result stream already consumed")
)
