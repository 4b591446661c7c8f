#include "index/index_io.h"

#include <memory>

#include "util/str.h"

namespace irbuf::index {

namespace {

constexpr uint32_t kIndexMagic = 0x46425249;  // "IRBF".

}  // namespace

Status WriteIndex(const InvertedIndex& index, BinaryWriter* writer) {
  IRBUF_RETURN_NOT_OK(writer->WriteU32(kIndexMagic));
  IRBUF_RETURN_NOT_OK(writer->WriteU32(kIndexFormatVersion));
  IRBUF_RETURN_NOT_OK(writer->WriteU32(
      index.order() == IndexListOrder::kFrequencySorted ? 0 : 1));
  IRBUF_RETURN_NOT_OK(writer->WriteU32(index.num_docs()));

  // Lexicon.
  const Lexicon& lexicon = index.lexicon();
  IRBUF_RETURN_NOT_OK(
      writer->WriteU32(static_cast<uint32_t>(lexicon.size())));
  for (TermId t = 0; t < lexicon.size(); ++t) {
    const TermInfo& info = lexicon.info(t);
    IRBUF_RETURN_NOT_OK(writer->WriteString(info.text));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(info.ft));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(info.fmax));
    IRBUF_RETURN_NOT_OK(writer->WriteU32(info.pages));
    IRBUF_RETURN_NOT_OK(writer->WriteDouble(info.idf));
  }

  // Conversion table.
  const auto& rows = index.conversion_table().rows();
  IRBUF_RETURN_NOT_OK(writer->WriteU32(static_cast<uint32_t>(rows.size())));
  for (const auto& [term, row] : rows) {
    IRBUF_RETURN_NOT_OK(writer->WriteU32(term));
    for (uint16_t pages : row) {
      IRBUF_RETURN_NOT_OK(writer->WriteU32(pages));
    }
  }

  // Document norms.
  for (DocId d = 0; d < index.num_docs(); ++d) {
    IRBUF_RETURN_NOT_OK(writer->WriteDouble(index.doc_norm(d)));
  }

  // Inverted files (compressed page images).
  const storage::SimulatedDisk& disk = index.disk();
  for (TermId t = 0; t < lexicon.size(); ++t) {
    uint32_t pages = disk.NumPages(t);
    IRBUF_RETURN_NOT_OK(writer->WriteU32(pages));
    for (uint32_t p = 0; p < pages; ++p) {
      PageId id{t, p};
      IRBUF_RETURN_NOT_OK(writer->WriteDouble(disk.PageMaxWeight(id)));
      Result<const std::vector<uint8_t>*> image = disk.PageImage(id);
      if (!image.ok()) return image.status();
      IRBUF_RETURN_NOT_OK(writer->WriteBytes(*image.value()));
    }
  }
  return Status::OK();
}

Status SaveIndex(const InvertedIndex& index, const std::string& path) {
  Result<BinaryWriter> writer = BinaryWriter::Open(path);
  if (!writer.ok()) return writer.status();
  IRBUF_RETURN_NOT_OK(WriteIndex(index, &writer.value()));
  return writer.value().Close();
}

Result<InvertedIndex> ReadIndex(BinaryReader* reader) {
  uint32_t magic = 0, version = 0, num_docs = 0, num_terms = 0;
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&magic));
  if (magic != kIndexMagic) {
    return Status::InvalidArgument("not an irbuf index file");
  }
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&version));
  if (version != kIndexFormatVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported index format version %u", version));
  }
  uint32_t order_tag = 0;
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&order_tag));
  if (order_tag > 1) {
    return Status::InvalidArgument("corrupt list-order tag");
  }
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&num_docs));
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&num_terms));

  Lexicon lexicon;
  for (TermId t = 0; t < num_terms; ++t) {
    std::string text;
    IRBUF_RETURN_NOT_OK(reader->ReadString(&text));
    TermId id = lexicon.AddTerm(text);
    if (id != t) {
      return Status::IOError("duplicate term text in index file");
    }
    TermInfo& info = lexicon.mutable_info(id);
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&info.ft));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&info.fmax));
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&info.pages));
    IRBUF_RETURN_NOT_OK(reader->ReadDouble(&info.idf));
  }

  ConversionTable table;
  uint32_t num_rows = 0;
  IRBUF_RETURN_NOT_OK(reader->ReadU32(&num_rows));
  for (uint32_t i = 0; i < num_rows; ++i) {
    uint32_t term = 0;
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&term));
    ConversionTable::Row row{};
    for (size_t j = 0; j < row.size(); ++j) {
      uint32_t pages = 0;
      IRBUF_RETURN_NOT_OK(reader->ReadU32(&pages));
      row[j] = static_cast<uint16_t>(pages);
    }
    table.AddTerm(term, row);
  }

  IRBUF_RETURN_NOT_OK(reader->CheckCount(num_docs, 8));
  std::vector<double> norms(num_docs);
  for (DocId d = 0; d < num_docs; ++d) {
    IRBUF_RETURN_NOT_OK(reader->ReadDouble(&norms[d]));
  }

  auto disk = std::make_unique<storage::SimulatedDisk>();
  for (TermId t = 0; t < num_terms; ++t) {
    uint32_t pages = 0;
    IRBUF_RETURN_NOT_OK(reader->ReadU32(&pages));
    if (pages != lexicon.info(t).pages) {
      return Status::IOError(
          StrFormat("page count mismatch for term %u", t));
    }
    for (uint32_t p = 0; p < pages; ++p) {
      double max_weight = 0.0;
      std::vector<uint8_t> image;
      IRBUF_RETURN_NOT_OK(reader->ReadDouble(&max_weight));
      IRBUF_RETURN_NOT_OK(reader->ReadBytes(&image));
      IRBUF_RETURN_NOT_OK(
          disk->AppendEncodedPage(t, std::move(image), max_weight));
    }
  }
  return InvertedIndex(std::move(lexicon), std::move(disk),
                       std::move(table), std::move(norms),
                       order_tag == 0 ? IndexListOrder::kFrequencySorted
                                      : IndexListOrder::kDocumentOrdered);
}

Result<InvertedIndex> LoadIndex(const std::string& path) {
  Result<BinaryReader> reader = BinaryReader::Open(path);
  if (!reader.ok()) return reader.status();
  return ReadIndex(&reader.value());
}

}  // namespace irbuf::index
