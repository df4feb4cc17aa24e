// Plain-ctest driver for the fuzz harnesses: replays every file under
// the given corpus paths through LLVMFuzzerTestOneInput. This keeps the
// fuzzer's invariants in the regular test suite on toolchains without
// libFuzzer; crashes found while fuzzing get their reproducers checked
// into the corpus and regress here forever.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::size_t replayed = 0;
  for (int a = 1; a < argc; ++a) {
    const fs::path root(argv[a]);
    if (!fs::exists(root)) {
      std::fprintf(stderr, "corpus path missing: %s\n", argv[a]);
      return 1;
    }
    std::vector<fs::path> files;
    if (fs::is_directory(root)) {
      for (const auto& e : fs::recursive_directory_iterator(root)) {
        if (e.is_regular_file()) files.push_back(e.path());
      }
    } else {
      files.push_back(root);
    }
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      std::ifstream in(f, std::ios::binary);
      std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                      std::istreambuf_iterator<char>());
      LLVMFuzzerTestOneInput(bytes.data(), bytes.size());
      ++replayed;
    }
  }
  if (replayed == 0) {
    std::fprintf(stderr, "no corpus inputs replayed\n");
    return 1;
  }
  std::printf("replayed %zu corpus inputs, all invariants held\n", replayed);
  return 0;
}
