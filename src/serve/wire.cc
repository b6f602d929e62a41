#include "serve/wire.h"

#include <utility>

namespace copydetect {
namespace serve {

StatusOr<Request> ParseRequest(std::string_view line) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  if (!parsed->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  Request request;
  const JsonValue* verb = parsed->Find("verb");
  if (verb == nullptr || !verb->is_string() || verb->text().empty()) {
    return Status::InvalidArgument(
        "request needs a non-empty string \"verb\"");
  }
  request.verb = verb->text();
  request.session = parsed->GetString("session");
  request.body = std::move(*parsed);
  return request;
}

std::string OkResponse(const JsonValue& fields) {
  // Sized once: the envelope, the newline the transport appends, and
  // each member's key and scalar payload (a served report is one Raw
  // member), so neither the encoding nor the framing reallocates.
  size_t size = 16;
  for (const auto& [key, value] : fields.members()) {
    size += key.size() + value.text().size() + 8;
  }
  std::string out;
  out.reserve(size);
  out += "{\"ok\":true";
  for (const auto& [key, value] : fields.members()) {
    out += ',';
    AppendJsonString(key, &out);
    out += ':';
    value.DumpTo(&out);
  }
  out += '}';
  return out;
}

std::string ErrorResponse(const Status& status) {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(false));
  out.Set("error",
          JsonValue::Object()
              .Set("code", JsonValue::Str(StatusCodeToString(
                               status.ok() ? StatusCode::kInternal
                                           : status.code())))
              .Set("message", JsonValue::Str(status.message())));
  return out.Dump();
}

namespace {

/// Pulls the elements of one ["source","item"(,"value")] tuple.
Status TupleStrings(const JsonValue& tuple, size_t arity,
                    std::string_view what,
                    std::vector<std::string>* out) {
  if (!tuple.is_array() || tuple.items().size() != arity) {
    return Status::InvalidArgument(
        std::string(what) + " entries must be arrays of " +
        std::to_string(arity) + " strings");
  }
  out->clear();
  for (const JsonValue& field : tuple.items()) {
    if (!field.is_string()) {
      return Status::InvalidArgument(std::string(what) +
                                     " entries must hold strings");
    }
    out->push_back(field.text());
  }
  return Status::OK();
}

}  // namespace

StatusOr<DatasetDelta> DeltaFromJson(const JsonValue& body) {
  DatasetDelta delta;
  std::vector<std::string> fields;
  if (const JsonValue* set = body.Find("set"); set != nullptr) {
    if (!set->is_array()) {
      return Status::InvalidArgument("\"set\" must be an array");
    }
    for (const JsonValue& tuple : set->items()) {
      CD_RETURN_IF_ERROR(TupleStrings(tuple, 3, "\"set\"", &fields));
      delta.Set(fields[0], fields[1], fields[2]);
    }
  }
  if (const JsonValue* retract = body.Find("retract");
      retract != nullptr) {
    if (!retract->is_array()) {
      return Status::InvalidArgument("\"retract\" must be an array");
    }
    for (const JsonValue& tuple : retract->items()) {
      CD_RETURN_IF_ERROR(
          TupleStrings(tuple, 2, "\"retract\"", &fields));
      delta.Retract(fields[0], fields[1]);
    }
  }
  if (delta.empty()) {
    return Status::InvalidArgument(
        "update carries neither \"set\" nor \"retract\" entries");
  }
  return delta;
}

StatusOr<SessionOptions> SessionOptionsFromJson(
    const JsonValue& options) {
  if (!options.is_object()) {
    return Status::InvalidArgument("\"options\" must be an object");
  }
  SessionOptions out;
  for (const auto& [key, value] : options.members()) {
    bool ok = true;
    if (key == "detector") {
      ok = value.is_string();
      if (ok) out.detector = value.text();
    } else if (key == "threads") {
      uint64_t v = 0;
      ok = value.AsUint64(&v);
      if (ok) out.threads = static_cast<size_t>(v);
    } else if (key == "alpha") {
      ok = value.AsDouble(&out.alpha);
    } else if (key == "s") {
      ok = value.AsDouble(&out.s);
    } else if (key == "n") {
      ok = value.AsDouble(&out.n);
    } else if (key == "max_rounds") {
      int64_t v = 0;
      ok = value.AsInt64(&v);
      if (ok) out.max_rounds = static_cast<int>(v);
    } else if (key == "epsilon") {
      ok = value.AsDouble(&out.epsilon);
    } else if (key == "damping") {
      ok = value.AsDouble(&out.damping);
    } else if (key == "update_rebuild_fraction") {
      ok = value.AsDouble(&out.update_rebuild_fraction);
    } else {
      return Status::InvalidArgument(
          "unknown session option \"" + key +
          "\" — accepted: detector, threads, alpha, s, n, max_rounds, "
          "epsilon, damping, update_rebuild_fraction");
    }
    if (!ok) {
      return Status::InvalidArgument("session option \"" + key +
                                     "\" has the wrong type");
    }
  }
  return out;
}

StatusOr<World> WorldFromJson(const JsonValue& data_spec) {
  if (!data_spec.is_object()) {
    return Status::InvalidArgument("\"data\" must be an object");
  }
  std::string profile = data_spec.GetString("generate");
  if (profile.empty()) {
    return Status::InvalidArgument(
        "\"data\" needs {\"generate\":\"<profile>\"} — one of "
        "book-cs, book-full, stock-1day, stock-2wk, example");
  }
  double scale = data_spec.GetDouble("scale", 1.0);
  uint64_t seed = data_spec.GetUint64("seed", 42);
  return MakeWorldByName(profile, scale, seed);
}

}  // namespace serve
}  // namespace copydetect
