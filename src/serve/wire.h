#ifndef COPYDETECT_SERVE_WIRE_H_
#define COPYDETECT_SERVE_WIRE_H_

/// \file
/// The copydetectd wire protocol (docs/SERVER.md): newline-delimited
/// JSON over a local stream socket. One request line in, one response
/// line out, in order, per connection. This header is the pure
/// message layer — parsing/rendering only, no sockets — so it is unit
/// testable without a daemon and swappable under a different
/// transport.
///
/// Requests:  {"verb":"open|query|update|save|stats|close",
///             "session":"<name>", ...verb-specific fields}
/// Responses: {"ok":true, ...}  |
///            {"ok":false,"error":{"code":"<StatusCode>",
///                                 "message":"..."}}

#include <string>
#include <string_view>

#include "common/json.h"
#include "copydetect/session.h"

namespace copydetect {
namespace serve {

/// A parsed request line: the dispatch fields pulled out, the whole
/// body kept for verb-specific decoding.
struct Request {
  std::string verb;
  std::string session;  ///< "" when the verb takes no session
  JsonValue body;       ///< the full request object
};

/// Parses one request line. Errors (not JSON, not an object, missing
/// verb) come back as InvalidArgument naming the problem — the server
/// turns them into {"ok":false} responses rather than dropping the
/// connection.
StatusOr<Request> ParseRequest(std::string_view line);

/// {"ok":true} followed by the members of `fields` (an object, with no
/// "ok" member of its own), in order. The members are encoded straight
/// from `fields`, never copied, into one string sized with a byte to
/// spare for the newline. No trailing newline — the transport owns
/// framing.
std::string OkResponse(const JsonValue& fields);

/// {"ok":false,"error":{"code":"<name>","message":"..."}}.
std::string ErrorResponse(const Status& status);

/// Decodes an update payload:
///   {"set":[["source","item","value"],...],
///    "retract":[["source","item"],...]}
/// Both keys optional; anything else in `body` is ignored (the
/// request envelope lives there too).
StatusOr<DatasetDelta> DeltaFromJson(const JsonValue& body);

/// Decodes the "options" object of an `open` request into
/// SessionOptions. Accepts the serving-relevant knobs — detector,
/// threads, alpha, s, n, max_rounds, epsilon, damping,
/// update_rebuild_fraction — and fails closed on unknown keys (a
/// typoed option must not silently fall back to a default).
/// `online_updates` is not accepted: the manager forces it on.
StatusOr<SessionOptions> SessionOptionsFromJson(const JsonValue& options);

/// Decodes the "data" object of an `open` request into a generated
/// World: {"generate":"book-cs|book-full|stock-1day|stock-2wk|
/// example", "scale":0.1, "seed":7}. The World carries suggested_n,
/// which `open` uses when the options omit "n".
StatusOr<World> WorldFromJson(const JsonValue& data_spec);

}  // namespace serve
}  // namespace copydetect

#endif  // COPYDETECT_SERVE_WIRE_H_
