// Fixture for the wiretag analyzer: fast-lane payloads must tag through
// wire.Pack with constants declared in the wire package.
package fixture

import (
	exec "vavg/internal/engine"
	"vavg/internal/wire"
)

// localTag is exactly the kind of hand-rolled tag that collides with
// present or future message families.
const localTag = 9

// sendAdHocTag packs with a constant the wire package never issued.
func sendAdHocTag(api *exec.API, c int64) {
	api.SendInt(0, wire.Pack(localTag, c)) // want `wire\.Pack tag must be a wire\.Tag\* constant`
}

// sendTagBits sets the tag byte without going through wire.Pack.
func sendTagBits(api *exec.API) {
	api.BroadcastInt(1 << 60) // want "tag bits set"
}

// sendShifted hand-packs a variable into the tag byte.
func sendShifted(api *exec.API, x int64) {
	api.SendIDInt(3, x<<56|5) // want "hand-packs the tag byte"
}

// sendOK tags through the wire constants; raw payloads below the tag
// byte are legal by design.
func sendOK(api *exec.API, c int64) {
	api.SendInt(0, wire.Pack(wire.TagColor, c))
	api.BroadcastInt(12345)
}

// sendSuppressed shows the sanctioned escape hatch for deliberate raw
// lane traffic.
func sendSuppressed(api *exec.API) {
	//lint:ignore wiretag fixture: raw negative payload exercising the full lane width
	api.SendInt(0, -1)
}
