#ifndef COPYDETECT_SNAPSHOT_SNAPSHOT_IO_H_
#define COPYDETECT_SNAPSHOT_SNAPSHOT_IO_H_

/// \file
/// SnapshotIO — the durability layer: a versioned, checksummed,
/// little-endian binary format that persists a Dataset snapshot
/// together with its derived state (overlap counts and the last
/// fusion result), so a process can resume exactly where the previous
/// one stopped instead of re-parsing, recounting and re-fusing from
/// cold. Files from older writers may also carry an update-replay
/// TAPE section; the reader validates it and drops it.
///
/// The on-disk format is specified byte by byte in docs/FORMATS.md;
/// this header is the programmatic surface. Applications normally go
/// through Session::Save / Session::Load (copydetect/session.h) —
/// the free Write/Read functions here are the lower-level primitive
/// the facade is built on (and what tests use to construct corrupt
/// or inconsistent files).
///
/// Guarantees:
///  * Round-trip fidelity: Read(Write(state)) reproduces every array
///    bit for bit — doubles are stored as raw IEEE-754 bit patterns
///    and hash-table payloads keep their exact table layout, so a
///    resumed session's subsequent Update/Step output is bit-identical
///    to a session that never left memory.
///  * Fail-closed loading: a truncated file, foreign magic, unknown
///    future format version, checksum mismatch, cross-section
///    generation mismatch, or structurally inconsistent payload all
///    yield a descriptive error Status — never undefined behavior.
///  * Compatibility policy: files written by format version N are
///    refused (with a Status naming both versions) by readers that
///    only know M < N; readers accept versions they know. This
///    version-3 reader accepts 1 (pre-alignment, always decoded into
///    copies), 2 and 3.
///
/// Version 2 additionally aligns every section payload — and every
/// POD array inside a payload — to an 8-byte file offset, which lets
/// ReadMapped serve the Dataset arrays and the dense overlap triangle
/// zero-copy out of the mapped file (the ArrayStore view backend).
/// Version 3 keeps that layout and deals the checksummed words to
/// eight independent lanes, so verifying a file no longer waits on one
/// serial chain; each file is checked with its own version's checksum.
///
/// Read and ReadMapped are one decoder over the file's bytes; they
/// differ only in where the bytes come from (one sized read vs a
/// read-only mapping) and whether arrays may alias them.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/copy_result.h"
#include "fusion/truth_finder.h"
#include "model/dataset.h"
#include "simjoin/overlap.h"

namespace copydetect {
namespace snapshot {

/// Current on-disk format version. Version 2 pads sections and POD
/// arrays to 8-byte alignment (the mmap zero-copy requirement);
/// version 3 seals the table and the payloads with the 8-lane checksum
/// of docs/FORMATS.md. Bump on any layout change; readers refuse
/// versions they do not know.
inline constexpr uint32_t kFormatVersion = 3;

/// Oldest version this reader still decodes (into copies, in either
/// load mode).
inline constexpr uint32_t kMinReadVersion = 1;

/// First 8 bytes of every snapshot file. Like the PNG magic, the
/// CR/LF pair makes text-mode line-ending mangling fail loudly at
/// byte 6 instead of corrupting a payload much later.
inline constexpr unsigned char kMagic[8] = {'C', 'D', 'S', 'N',
                                            'A', 'P', '\r', '\n'};

/// Section ids. The section table is the unit of integrity checking
/// (one checksum per section) and of forward evolution (new optional
/// state = new section id + version bump). Ids 1-5 are the session
/// snapshot sections (versions 1 to 3). Ids 6 and 7 framed the files
/// of a retired multi-process mode; they stay reserved, are never
/// reused, and are refused like any unknown id.
enum class SectionId : uint32_t {
  kOptions = 1,   ///< session configuration, self-describing fields
  kDataset = 2,   ///< the Dataset snapshot, all arrays verbatim
  kOverlaps = 3,  ///< maintained OverlapCounts (optional)
  kFusion = 4,    ///< the last completed run's FusionResult
  kTape = 5,      ///< legacy update tape: validated, dropped, never written
};

/// One self-describing configuration field of the OPTIONS section:
/// name + type tag + value. Self-description keeps the section
/// reviewable with a hex dump and makes "written by a newer library"
/// failures precise (the unknown field is named in the Status).
struct OptionField {
  enum class Type : uint8_t {
    kBool = 0,
    kUint = 1,
    kReal = 2,
    kText = 3,
  };

  std::string name;
  Type type = Type::kUint;
  uint64_t uint_value = 0;  ///< kBool (0/1) and kUint
  double real_value = 0.0;  ///< kReal
  std::string text_value;   ///< kText

  static OptionField Bool(std::string name, bool v);
  static OptionField Uint(std::string name, uint64_t v);
  static OptionField Real(std::string name, double v);
  static OptionField Text(std::string name, std::string v);
};

/// Everything one file holds. Write() serializes it as given —
/// including inconsistent generations, which Read() then refuses —
/// so tests can construct every corruption scenario through the
/// public API.
struct SessionState {
  /// Dataset::generation() at save time. Generations are process-
  /// local (a loaded Dataset draws a fresh one); on disk this value
  /// is a consistency token: every derived-state section records the
  /// generation it was computed for, and Read() refuses a file whose
  /// sections disagree (state derived from a different snapshot must
  /// never be warm-started against this one).
  uint64_t generation = 0;

  std::vector<OptionField> options;
  Dataset data;

  bool has_overlaps = false;
  uint64_t overlaps_generation = 0;
  OverlapCounts overlaps;

  FusionResult fusion;
};

/// Serializes `state` to `path` (overwriting). The file is written
/// via a same-directory temporary + rename, so a crash mid-write
/// never leaves a half-written file at `path`.
Status Write(const std::string& path, const SessionState& state);

/// Reads and fully validates a snapshot file: magic, format version,
/// section table (bounds, version-2 alignment), every per-section
/// checksum, cross-section generation consistency, and structural
/// payload validation (every id in range, every CSR monotone) — a
/// file that Read() accepts is safe to hand to the detection
/// algorithms. The file is read into memory once; the returned state
/// owns every array and never touches the file again. Anything but a
/// regular file (a FIFO, device or directory) is refused with an
/// IOError naming the path, before any read.
StatusOr<SessionState> Read(const std::string& path);

/// Recovery scan: the `.cdsnap` files directly inside `dir`, sorted
/// by filename so recovery order is deterministic. Paths are returned
/// joined ("dir/name.cdsnap"); non-snapshot files are skipped
/// silently (a state directory may hold temp files from interrupted
/// atomic writes). NotFound when `dir` does not exist or is not a
/// directory — a daemon treats that as "no state yet", anything else
/// as a real error.
StatusOr<std::vector<std::string>> ListSnapshotFiles(
    const std::string& dir);

/// Mapped-mode Read(): the same decoder, validation and SessionState,
/// but over a read-only mapping of the file. When the file is version 2
/// or later and the host little-endian, the Dataset's POD/string arrays and the
/// dense overlap triangle are ArrayStore views straight into the
/// mapping instead of decoded heap copies — peak memory stays at
/// roughly the resident mapped pages instead of file + decoded copy.
/// Otherwise (version-1 files, big-endian hosts) those arrays decode
/// into copies and the mapping is released when the call returns. The
/// returned state's views keep the mapping alive; Dataset::Apply and
/// UpdateOverlaps copy-on-write out of it.
StatusOr<SessionState> ReadMapped(const std::string& path);

}  // namespace snapshot
}  // namespace copydetect

#endif  // COPYDETECT_SNAPSHOT_SNAPSHOT_IO_H_
