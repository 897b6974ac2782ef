// Walsh-Hadamard spreading and despreading for MC-CDMA.
//
// Each user's data symbol is multiplied by its length-SF Walsh code and
// summed chip-wise with the other users'; the Nc subcarriers carry
// Nc/SF such code groups per OFDM symbol. Orthogonality of distinct Walsh
// codes makes despreading exact in the absence of channel distortion.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "mccdma/params.hpp"

namespace pdr::mccdma {

using Cplx = std::complex<double>;

class Spreader {
 public:
  explicit Spreader(const McCdmaParams& params);

  /// Spreads per-user symbols onto subcarrier chips. `user_symbols[u]`
  /// holds `params.symbols_per_user()` symbols of user u; the result has
  /// `params.n_subcarriers` chips. Chips are scaled by 1/sqrt(n_users) so
  /// average chip energy stays ~1 regardless of load.
  std::vector<Cplx> spread(const std::vector<std::vector<Cplx>>& user_symbols) const;

  /// Recovers user `user`'s symbols from the chips.
  std::vector<Cplx> despread(std::span<const Cplx> chips, std::size_t user) const;


 private:
  McCdmaParams params_;
  std::vector<std::vector<int>> codes_;  ///< Walsh code per user
};

}  // namespace pdr::mccdma
