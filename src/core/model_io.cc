#include "src/core/model_io.h"

#include <charconv>
#include <cmath>
#include <span>
#include <sstream>
#include <string_view>
#include <vector>

#include "src/common/durable_io.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/la/ops.h"

namespace smfl::core {

namespace {

constexpr const char* kMagic = "smfl-model";
// v1/v2 were bare text (v2 added the fitted normalizer); v3 wrapped the
// same body in the checksummed durable-io container; v4 drops U for
// mean(U) and stores the training header. v3 still loads.
constexpr int kVersion = 4;
constexpr int kOldestReadVersion = 3;

// Section order per container version; the concatenated payloads form the
// text body one parser reads.
constexpr const char* kSectionsV3[] = {"meta", "normalizer", "U",
                                       "V",    "C",          "trace"};
constexpr const char* kSectionsV4[] = {"meta", "columns", "normalizer", "V",
                                       "C",    "mean_u",  "trace"};

// A fitted model is K x M + K x L doubles (plus N x K in v3) — a corrupt
// or hostile header claiming more than these bounds is rejected before
// any allocation happens (a huge rows*cols would otherwise overflow or
// abort with bad_alloc).
constexpr long long kMaxMatrixDim = 1LL << 24;    // 16M rows or cols
constexpr long long kMaxMatrixElems = 1LL << 27;  // 128M doubles = 1 GiB
constexpr long long kMaxTraceLen = 1LL << 24;

void WriteMatrix(std::ostringstream& os, const char* name, const Matrix& m) {
  os << name << " " << m.rows() << " " << m.cols() << "\n";
  os.precision(17);
  for (Index i = 0; i < m.rows(); ++i) {
    for (Index j = 0; j < m.cols(); ++j) {
      os << m(i, j) << (j + 1 < m.cols() ? " " : "");
    }
    os << "\n";
  }
}

// Whitespace-separated tokens of a text body. Numbers parse with
// std::from_chars: locale-free, and exact for the 17-digit writer.
class TextReader {
 public:
  explicit TextReader(std::string_view text) : text_(text) {}

  bool Word(std::string_view* out) {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
    *out = text_.substr(start, pos_ - start);
    return pos_ > start;
  }

  bool Tag(std::string_view expected) {
    std::string_view word;
    return Word(&word) && word == expected;
  }

  template <typename T>
  bool Number(T* out) {
    std::string_view word;
    if (!Word(&word)) return false;
    const auto [end, ec] =
        std::from_chars(word.data(), word.data() + word.size(), *out);
    return ec == std::errc() && end == word.data() + word.size();
  }

  // One separator byte, then exactly n raw bytes.
  bool Raw(size_t n, std::string* out) {
    if (pos_ >= text_.size() || text_.size() - pos_ - 1 < n) return false;
    out->assign(text_.substr(pos_ + 1, n));
    pos_ += 1 + n;
    return true;
  }

 private:
  static bool IsSpace(char c) {
    return c == ' ' || c == '\n' || c == '\t' || c == '\r';
  }
  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Status NonFinite(const char* section) {
  return Status::DataError(StrFormat(
      "model file: non-finite value in section '%s'", section));
}

// Reads "name rows cols" then rows*cols doubles.
Result<Matrix> ReadMatrix(TextReader& in, const char* name) {
  long long rows = -1, cols = -1;
  if (!in.Tag(name) || !in.Number(&rows) || !in.Number(&cols)) {
    return Status::DataError(
        StrFormat("model file: expected matrix block '%s'", name));
  }
  if (rows < 0 || cols < 0) {
    return Status::DataError(
        StrFormat("model file: negative dimensions for '%s'", name));
  }
  if (rows > kMaxMatrixDim || cols > kMaxMatrixDim ||
      (rows > 0 && cols > kMaxMatrixElems / rows)) {
    return Status::DataError(
        StrFormat("model file: implausible dimensions %lldx%lld for '%s'",
                  rows, cols, name));
  }
  Matrix m(static_cast<Index>(rows), static_cast<Index>(cols));
  for (Index i = 0; i < m.size(); ++i) {
    if (!in.Number(&m.data()[i])) {
      return Status::DataError(
          StrFormat("model file: truncated matrix '%s'", name));
    }
  }
  return m;
}

// A matrix section the model serves from: every value finite.
Result<Matrix> ReadServedMatrix(TextReader& in, const char* name) {
  ASSIGN_OR_RETURN(Matrix m, ReadMatrix(in, name));
  if (m.HasNonFinite()) return NonFinite(name);
  return m;
}

Status ReadColumns(TextReader& in, std::vector<std::string>* names) {
  long long count = -1;
  if (!in.Tag("columns") || !in.Number(&count) || count < 0 ||
      count > kMaxMatrixDim) {
    return Status::DataError("model file: bad columns header");
  }
  names->resize(static_cast<size_t>(count));
  for (std::string& name : *names) {
    long long length = -1;
    if (!in.Number(&length) || length < 0 ||
        !in.Raw(static_cast<size_t>(length), &name)) {
      return Status::DataError("model file: truncated column names");
    }
  }
  return Status::OK();
}

Status ReadNormalizer(TextReader& in, SmflModel* model) {
  long long cols = -1;
  if (!in.Tag("normalizer") || !in.Number(&cols) || cols < 0 ||
      cols > kMaxMatrixDim) {
    return Status::DataError("model file: bad normalizer header");
  }
  if (cols == 0) return Status::OK();
  std::vector<double> mins(static_cast<size_t>(cols));
  std::vector<double> maxs(static_cast<size_t>(cols));
  for (size_t j = 0; j < mins.size(); ++j) {
    if (!in.Number(&mins[j]) || !in.Number(&maxs[j])) {
      return Status::DataError("model file: truncated normalizer bounds");
    }
    if (!std::isfinite(mins[j]) || !std::isfinite(maxs[j])) {
      return NonFinite("normalizer");
    }
  }
  auto normalizer =
      data::MinMaxNormalizer::FromBounds(std::move(mins), std::move(maxs));
  if (!normalizer.ok()) {
    return Status::DataError("model file: section 'normalizer': " +
                             normalizer.status().message());
  }
  model->normalizer = std::move(normalizer).value();
  return Status::OK();
}

// Parses the text body of a v3 or v4 file (its concatenated section
// payloads). A v3 body carries U, reduced here to mean(U) and dropped.
Result<SmflModel> ParseModelBody(std::string_view content) {
  TextReader in(content);
  int version = -1;
  if (!in.Tag(kMagic) || !in.Number(&version)) {
    return Status::DataError("not an smfl model file");
  }
  if (version < kOldestReadVersion || version > kVersion) {
    return Status::DataError(
        StrFormat("unsupported model version %d", version));
  }
  SmflModel model;
  long long spatial_cols = -1;
  if (!in.Tag("spatial_cols") || !in.Number(&spatial_cols) ||
      spatial_cols < 0 || spatial_cols > kMaxMatrixDim) {
    return Status::DataError("model file: bad spatial_cols");
  }
  model.spatial_cols = static_cast<Index>(spatial_cols);
  int converged = 0;
  if (!in.Tag("iterations") || !in.Number(&model.report.iterations) ||
      !in.Tag("converged") || !in.Number(&converged)) {
    return Status::DataError("model file: bad iterations header");
  }
  model.report.converged = converged != 0;
  if (version >= 4) RETURN_NOT_OK(ReadColumns(in, &model.column_names));
  RETURN_NOT_OK(ReadNormalizer(in, &model));
  Index u_rank = -1;
  if (version == 3) {
    ASSIGN_OR_RETURN(Matrix u, ReadMatrix(in, "U"));
    u_rank = u.cols();
    if (u.rows() > 0) model.mean_u = la::ColMeans(u);
  }
  ASSIGN_OR_RETURN(model.v, ReadServedMatrix(in, "V"));
  if (version == 3 && u_rank != model.v.rows()) {
    return Status::DataError("model file: U/V rank mismatch");
  }
  ASSIGN_OR_RETURN(model.landmarks, ReadServedMatrix(in, "C"));
  if (version >= 4) {
    ASSIGN_OR_RETURN(Matrix mean_u, ReadServedMatrix(in, "mean_u"));
    if (mean_u.rows() != 1 || mean_u.cols() != model.v.rows()) {
      return Status::DataError(StrFormat(
          "model file: section 'mean_u' holds %lldx%lld values, expected "
          "1x%lld (the rank)",
          static_cast<long long>(mean_u.rows()),
          static_cast<long long>(mean_u.cols()),
          static_cast<long long>(model.v.rows())));
    }
    model.mean_u = la::Vector(std::vector<double>(
        mean_u.data(), mean_u.data() + mean_u.size()));
  }
  for (Index c = 0; c < model.mean_u.size(); ++c) {
    if (!std::isfinite(model.mean_u[c])) return NonFinite("U");
  }
  long long trace_size = -1;
  if (!in.Tag("trace") || !in.Number(&trace_size) || trace_size < 0 ||
      trace_size > kMaxTraceLen) {
    return Status::DataError("model file: bad trace header");
  }
  model.report.objective_trace.resize(static_cast<size_t>(trace_size));
  for (double& v : model.report.objective_trace) {
    if (!in.Number(&v)) {
      return Status::DataError("model file: truncated trace");
    }
  }
  // Consistency checks.
  if (model.landmarks.size() > 0 &&
      (model.landmarks.rows() != model.v.rows() ||
       model.landmarks.cols() > model.v.cols())) {
    return Status::DataError("model file: landmark shape mismatch");
  }
  if (model.spatial_cols > model.v.cols()) {
    return Status::DataError("model file: spatial_cols exceeds columns");
  }
  if (model.normalizer.has_value() &&
      model.normalizer->NumCols() != model.v.cols()) {
    return Status::DataError("model file: normalizer column-count mismatch");
  }
  if (!model.column_names.empty() &&
      static_cast<Index>(model.column_names.size()) != model.v.cols()) {
    return Status::DataError("model file: column-name count mismatch");
  }
  return model;
}

// The refusal for a bare-text file: names the v1/v2 version when the body
// carries one.
Status BareTextError(const std::string& content) {
  TextReader in(content);
  int version = -1;
  if (in.Tag(kMagic) && in.Number(&version) && version >= 1 &&
      version < kOldestReadVersion) {
    return Status::DataError(StrFormat(
        "model file is format v%d (bare text, no checksums), which this "
        "version no longer reads; refit with `smfl fit` to write format v%d",
        version, kVersion));
  }
  return Status::DataError("not an smfl model file");
}

}  // namespace

std::string SerializeModel(const SmflModel& model) {
  // Each logical block becomes one CRC-framed container section; joined in
  // kSectionsV4 order the payloads form the text body the parser reads.
  std::ostringstream meta;
  meta << kMagic << " " << kVersion << "\n";
  meta << "spatial_cols " << model.spatial_cols << "\n";
  meta << "iterations " << model.report.iterations << " converged "
       << (model.report.converged ? 1 : 0) << "\n";

  std::ostringstream columns;
  columns << "columns " << model.column_names.size() << "\n";
  for (const std::string& name : model.column_names) {
    columns << name.size() << " " << name << "\n";
  }

  std::ostringstream norm;
  norm.precision(17);
  if (model.normalizer.has_value()) {
    norm << "normalizer " << model.normalizer->NumCols() << "\n";
    for (Index j = 0; j < model.normalizer->NumCols(); ++j) {
      norm << model.normalizer->ColMin(j) << " "
           << model.normalizer->ColMax(j) << "\n";
    }
  } else {
    norm << "normalizer 0\n";
  }

  const la::Vector mean_u = model.MeanU();  // K values, whatever the model
  Matrix mean_row(1, mean_u.size());
  for (Index c = 0; c < mean_u.size(); ++c) mean_row(0, c) = mean_u[c];
  std::ostringstream v_os, c_os, mean_os;
  WriteMatrix(v_os, "V", model.v);
  WriteMatrix(c_os, "C", model.landmarks);
  WriteMatrix(mean_os, "mean_u", mean_row);

  std::ostringstream trace;
  trace << "trace " << model.report.objective_trace.size() << "\n";
  trace.precision(17);
  for (double v : model.report.objective_trace) trace << v << "\n";

  SectionWriter writer;
  writer.Add("meta", meta.str());
  writer.Add("columns", columns.str());
  writer.Add("normalizer", norm.str());
  writer.Add("V", v_os.str());
  writer.Add("C", c_os.str());
  writer.Add("mean_u", mean_os.str());
  writer.Add("trace", trace.str());
  return writer.Finish();
}

Status SaveModel(const SmflModel& model, const std::string& path) {
  SMFL_TRACE_SPAN("core.save_model");
  return WriteFileDurable(path, SerializeModel(model));
}

Result<SmflModel> DeserializeModel(const std::string& content) {
  if (!LooksLikeDurableContainer(content)) return BareTextError(content);
  ASSIGN_OR_RETURN(std::vector<Section> sections, ParseSections(content));
  // The meta section leads every version and names it.
  int version = -1;
  if (!sections.empty()) {
    TextReader meta(sections[0].payload);
    if (!meta.Tag(kMagic) || !meta.Number(&version)) version = -1;
  }
  const std::span<const char* const> order =
      version == 3 ? std::span<const char* const>(kSectionsV3)
                   : std::span<const char* const>(kSectionsV4);
  if (sections.size() != order.size()) {
    return Status::DataError(StrFormat(
        "model file: expected %zu sections, found %zu", order.size(),
        sections.size()));
  }
  std::string body;
  for (size_t i = 0; i < order.size(); ++i) {
    if (sections[i].name != order[i]) {
      return Status::DataError(StrFormat(
          "model file: expected section '%s' at position %zu, found '%s'",
          order[i], i, sections[i].name.c_str()));
    }
    body += sections[i].payload;
  }
  return ParseModelBody(body);
}

Result<SmflModel> LoadModel(const std::string& path) {
  SMFL_TRACE_SPAN("core.load_model");
  auto content = ReadFileToString(path);
  if (!content.ok()) {
    Status st = content.status();
    return st.WithContext("while loading '" + path + "'");
  }
  auto model = DeserializeModel(content.value());
  if (!model.ok()) {
    Status st = model.status();
    return st.WithContext("while loading '" + path + "'");
  }
  return model;
}

}  // namespace smfl::core
