package wire

// Test-only access for the external wire_test package, whose tests drive
// the proxy host (internal/host builds on this package, so they cannot
// live in package wire itself).

// SyncExchange sends one request frame on conn and waits for its response.
var SyncExchange = syncExchange

// DropConn severs a device client's current connection, as a radio drop
// would.
func DropConn(d *DeviceClient) { _ = d.currentConn().Close() }

// InitialReadBufferBytes is the read buffer a connection starts with.
const InitialReadBufferBytes = initialReadBufferBytes

// ReadBufferSize reports the current size of conn's read buffer.
func ReadBufferSize(conn *Conn) int { return len(conn.r.buf) }
