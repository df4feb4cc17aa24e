// JSON reader fuzz harness.
//
// Same two drivers as fuzz_wire: a libFuzzer target under
// COLIBRI_FUZZING, and a plain ctest replay of tests/fuzz/corpus/json
// otherwise (replay_main.cpp). The input is untrusted bytes handed to
// the telemetry layer's one JSON reader, both as a generic document and
// as an event line. Every input must uphold:
//
//   1. no crash, hang or UB in JsonReader or Event::from_json on any
//      bytes (the sanitizers and the reader's depth bound back this);
//   2. an accepted event re-emits to a line that parses back to the
//      identical event: from_json(e.to_json()) == e;
//   3. every line Event::from_json accepts is also one valid document
//      to the generic reader (the event parser is a strict subset);
//   4. the writer's string escaping round-trips: valid UTF-8 written
//      with JsonWriter::str reads back byte-identical, and ASCII (any
//      byte below 0x80, control bytes included) is always accepted.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "colibri/telemetry/events.hpp"
#include "colibri/telemetry/json.hpp"

namespace {

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "json invariant violated: %s\n", what);
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using colibri::telemetry::Event;
  using colibri::telemetry::JsonReader;
  using colibri::telemetry::JsonWriter;
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  JsonReader doc(input);
  doc.skip();
  const bool is_document = doc.done();

  if (const auto ev = Event::from_json(input)) {
    check(is_document, "event line rejected by the generic reader");
    const std::string line = ev->to_json();
    const auto again = Event::from_json(line);
    check(again.has_value(), "re-emitted event line rejected");
    check(*again == *ev, "event changed across to_json/from_json");
    check(again->to_json() == line, "re-emitted event line not stable");
  }

  // Read the input as the body of a string: valid UTF-8 must survive
  // the writer's escaping and the reader's unescaping unchanged.
  JsonWriter w;
  w.str(input);
  const std::string quoted = w.take();
  JsonReader str(quoted);
  const std::string back = str.str();
  bool ascii = true;
  for (const char c : input) {
    ascii = ascii && static_cast<unsigned char>(c) < 0x80;
  }
  check(str.done() || !ascii, "escaped ASCII string rejected");
  if (str.done()) check(back == input, "string escaping did not round-trip");
  return 0;
}
