// Line-oriented request loop behind the `irhint_cli serve` subcommand. One
// command per line on `in`, one reply line (or stats block) per command on
// `out` — trivially scriptable and unit-testable through stringstreams.
//
// Protocol (times and element ids are unsigned integers):
//   query <st> <end> [elem ...]      -> "OK <n> [id ...]" sorted ids
//                                       ("OK 0" when st > end)
//   topk <k> <st> <end> [elem ...]   -> "OK <n> [id:score ...]" ranked
//                                       (score desc, id asc); needs a
//                                       scored-* engine kind
//   insert <st> <end> [elem ...]     -> "OK id=<id>"      assigned global id
//   erase <id> <st> <end> [elem ...] -> "OK"              tombstones the object
// topk, insert and erase refuse an interval with st > end
// (ERR InvalidArgument); a refused insert assigns no id.
//   stats                            -> multi-line "stat <name> <value>" block
//   flush                            -> "OK"              fsync WALs (durable)
//   help                             -> command summary
//   quit                             -> "BYE" and the loop returns
// Any failure replies "ERR <Status::ToString()>"; unknown commands reply
// "ERR ..." and the loop continues. EOF behaves like quit.

#ifndef IRHINT_SERVE_SERVER_LOOP_H_
#define IRHINT_SERVE_SERVER_LOOP_H_

#include <istream>
#include <ostream>

#include "serve/engine.h"

namespace irhint {
namespace serve {

/// \brief Drive `engine` from a command stream until quit/EOF. Returns the
/// number of commands executed (excluding blank lines and comments).
size_t RunServerLoop(ServeEngine* engine, std::istream& in, std::ostream& out);

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_SERVER_LOOP_H_
